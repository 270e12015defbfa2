// Package innodb implements a miniature MySQL/InnoDB-style storage
// engine: B+tree tables in a single tablespace file, a buffer pool with
// deferred batch flushing, a redo log on a separate device, checkpoints,
// and — the heart of the reproduction — four dirty-page flush pipelines:
//
//	DWBOn       — the default double-write: the batch is first written
//	              sequentially to the doublewrite buffer and fsynced, then
//	              each page is written again at its home location (§2.1);
//	DWBOff      — pages go straight to their home locations (fast but
//	              exposed to torn pages);
//	Share       — the paper's mode: the batch is written once to the
//	              doublewrite buffer's slots (no header page), then SHARE
//	              remaps every home page onto the just-written copy,
//	              eliminating the second write (§4.3);
//	AtomicWrite — the §6.1 related-work baseline: one atomic multi-page
//	              write command, no doublewrite area at all.
//
// Crash recovery restores torn pages from the doublewrite buffer (by
// checksum, DWB-On only), then replays committed redo records. Redo uses
// page images logged at commit time — physically simpler than InnoDB's
// physiological records but recovery-equivalent; the log lives on its own
// fast device, as in the paper's experimental setup.
package innodb

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"share/internal/btree"
	"share/internal/bufpool"
	"share/internal/extcache"
	"share/internal/fsim"
	"share/internal/ftl"
	"share/internal/sim"
	"share/internal/ssd"
	"share/internal/wal"
)

// ErrReadOnly is returned by mutating operations after the underlying
// device degraded to read-only (spare blocks exhausted). Reads keep
// serving from the buffer pool and the still-readable tablespace.
var ErrReadOnly = fmt.Errorf("innodb: engine is read-only: %w", ftl.ErrReadOnly)

// FlushMode selects the dirty-page flush pipeline.
type FlushMode int

// Flush pipelines.
const (
	DWBOn FlushMode = iota
	DWBOff
	Share
	// AtomicWrite uses the §6.1 related-work baseline: the whole batch is
	// written once through the FTL's atomic multi-page write command, so
	// no doublewrite area is needed at all. Unlike SHARE, the interface
	// requires the full page set up front and cannot express zero-copy
	// compaction.
	AtomicWrite
)

func (m FlushMode) String() string {
	switch m {
	case DWBOn:
		return "DWB-On"
	case DWBOff:
		return "DWB-Off"
	case Share:
		return "SHARE"
	case AtomicWrite:
		return "AtomicWrite"
	}
	return "?"
}

// Config sizes the engine.
type Config struct {
	Name         string // tablespace file name
	PageSize     int    // engine page size (multiple of the device page)
	PoolBytes    int64  // buffer pool size in bytes
	FlushMode    FlushMode
	DWBPages     int     // doublewrite batch size in engine pages
	DataBytes    int64   // preallocated tablespace size
	LogPages     uint32  // redo ring size on the log device (device pages)
	DirtyRatio   float64 // flush when dirty frames exceed this fraction
	MaxLogImages int     // checkpoint when more page images than this are logged
	// StreamHints tags device writes with per-object stream hints on
	// multi-stream devices: heap (leaf) pages, index/meta pages and the
	// doublewrite buffer each get their own stream on the data device, and
	// the redo log claims stream 0 of its own device. No effect when the
	// devices are single-stream.
	StreamHints bool
	// CacheDev attaches a flash-extended buffer cache on its own device:
	// clean buffer-pool evictions spill to it and misses try it before
	// the tablespace. The cache map is persistent, so it comes back warm
	// after a crash (revalidated against the tablespace); a faulted,
	// degraded or power-cut cache device never fails a transaction — the
	// engine just stops getting hits (Stats.CacheDegraded).
	CacheDev *ssd.Device
	// CacheWriteBack switches the cache to durable-dirty mode: flush
	// batches land on the cache device (journaled in its mapping journal)
	// instead of the tablespace, and checkpoints write dirty entries back
	// before truncating redo. If the cache degrades mid-run, flushes fall
	// back to the regular pipeline. Requires CacheDev.
	CacheWriteBack bool
}

// Stream layout when StreamHints is on (hints are clamped by the device,
// so fewer configured streams degrade gracefully toward sharing).
const (
	streamHeap  = 0 // leaf pages: the bulk of flush traffic
	streamIndex = 1 // interior/meta pages: hotter, rewritten on splits
	streamDWB   = 2 // doublewrite slots: overwritten every batch, shortest-lived
)

// DefaultConfig fills unset fields with experiment defaults.
func (c *Config) setDefaults(devPage int) error {
	if c.Name == "" {
		c.Name = "ibdata"
	}
	if c.PageSize == 0 {
		c.PageSize = 4 * devPage
	}
	if c.PageSize%devPage != 0 {
		return fmt.Errorf("innodb: page size %d not a multiple of device page %d", c.PageSize, devPage)
	}
	if c.PoolBytes == 0 {
		c.PoolBytes = int64(c.PageSize) * 256
	}
	if c.DWBPages == 0 {
		c.DWBPages = 32
	}
	if c.DataBytes == 0 {
		c.DataBytes = int64(c.PageSize) * 2048
	}
	if c.LogPages == 0 {
		c.LogPages = 4096
	}
	if c.DirtyRatio == 0 {
		c.DirtyRatio = 0.6
	}
	if c.MaxLogImages == 0 {
		c.MaxLogImages = 4096
	}
	return nil
}

const metaMagic = 0x494E4D54 // "INMT"

// Engine is one database instance.
//
// Concurrency and locking hierarchy (acquire downward, never upward):
//
//	e.mu (transaction latch) → group committer (wal.GroupCommitter)
//	e.mu → fs latch / wal latch → sim resources
//	pool no-steal pins / atomics — leaf locks, no yields underneath
//
// A session holds e.mu from Begin through apply and redo append, then
// releases it and joins the group-commit rendezvous (e.gc), so the
// expensive log fsync overlaps the next session's apply phase. Nothing
// acquires e.mu while inside the committer; checkpointLocked's Drain
// enters it under e.mu, which the hierarchy permits.
type Engine struct {
	fs     *fsim.FS
	file   *fsim.File
	dwb    *fsim.File
	logDev *ssd.Device
	log    *wal.Log
	pool   *bufpool.Pool
	cache  *extcache.Cache // nil without Config.CacheDev
	cfg    Config

	mu     sim.Mutex // transaction lock (coarse two-phase locking)
	tables map[string]*Table
	order  []string // table creation order: index = table id in redo records

	hwm    uint32 // next free engine page (page 0 is the meta page)
	dwbSeq uint64

	imagesSinceCkpt int // redo page images since the last checkpoint (e.mu)

	// gc is the group-commit rendezvous: transactions that appended their
	// commit record release e.mu and share one log sync there; checkpoints
	// drain it before truncating redo.
	gc *wal.GroupCommitter

	// Latched when a device write fails with ftl.ErrReadOnly; from then on
	// mutating operations fail fast with ErrReadOnly while reads keep
	// serving. Committed-but-unflushed pages stay in the pool and in the
	// redo log (which is never truncated after degradation).
	ftl.ReadOnlyLatch

	st Stats // counters updated via atomics; read with Stats()
}

// Table is a named B+tree.
type Table struct {
	e    *Engine
	name string
	id   int
	tree *btree.Tree
}

// Stats counts engine activity.
type Stats struct {
	Commits      int64
	FlushBatches int64
	PagesToDWB   int64 // engine pages written into the doublewrite buffer
	PagesToHome  int64 // engine pages written at home locations
	SharePairs   int64 // home pages installed by SHARE instead of a write
	Checkpoints  int64
	TornRestored int64 // pages restored from the DWB at recovery
	RedoApplied  int64 // page images applied at recovery

	GroupCommits int64 // log syncs issued by group-commit leaders
	GroupedTxns  int64 // commits that rode another transaction's sync

	ReadOnlyTransitions int64 // device degradations observed (0 or 1)
	Degraded            bool  // gauge: engine is serving read-only

	// Extended-cache telemetry (zero without Config.CacheDev).
	CacheHits        int64 // pool misses served from the cache device
	CacheFills       int64 // clean evictions spilled to the cache
	CacheDirtyFills  int64 // flush pages absorbed by the write-back cache
	CacheWritebacks  int64 // dirty cache entries written back at checkpoints
	CacheVerifyFails int64 // cache reads rejected by verify-on-read
	CacheDegraded    bool  // gauge: cache device stopped accepting fills
}

// Open creates or recovers an engine on fs with its redo log on logDev.
func Open(t *sim.Task, fs *fsim.FS, logDev *ssd.Device, cfg Config) (*Engine, error) {
	if err := cfg.setDefaults(fs.Device().PageSize()); err != nil {
		return nil, err
	}
	e := &Engine{
		fs:            fs,
		logDev:        logDev,
		cfg:           cfg,
		tables:        make(map[string]*Table),
		hwm:           1,
		ReadOnlyLatch: ftl.NewReadOnlyLatch(ErrReadOnly),
	}
	log, err := wal.New(logDev, 0, cfg.LogPages)
	if err != nil {
		return nil, err
	}
	e.log = log
	e.gc = wal.NewGroupCommitter(log)

	existing := fs.Exists(cfg.Name)
	if existing {
		if e.file, err = fs.Open(t, cfg.Name); err != nil {
			return nil, err
		}
		if e.dwb, err = fs.Open(t, cfg.Name+".dwb"); err != nil {
			return nil, err
		}
	} else {
		if e.file, err = fs.Create(t, cfg.Name); err != nil {
			return nil, err
		}
		if err = e.file.Allocate(t, 0, cfg.DataBytes); err != nil {
			return nil, err
		}
		if e.dwb, err = fs.Create(t, cfg.Name+".dwb"); err != nil {
			return nil, err
		}
		if err = e.dwb.Allocate(t, 0, int64(cfg.DWBPages+1)*int64(cfg.PageSize)); err != nil {
			return nil, err
		}
	}

	if cfg.StreamHints {
		if fs.Device().Streams() > 1 {
			e.file.SetStream(streamHeap) // per-page override in writeHome
			e.dwb.SetStream(streamDWB)
		}
		if logDev.Streams() > 0 {
			// Redo lives alone on the log device; pinning it to stream 0
			// keeps each group commit one coalesced flush into one block.
			e.log.SetStream(0)
		}
	}

	poolPages := int(cfg.PoolBytes / int64(cfg.PageSize))
	pool, err := bufpool.New(e.file, cfg.PageSize, poolPages, &flusher{e: e})
	if err != nil {
		return nil, err
	}
	pool.FlushBatchSize = cfg.DWBPages
	e.pool = pool

	if existing {
		if err := e.recover(t); err != nil {
			return nil, err
		}
	} else {
		if err := e.initMeta(t); err != nil {
			return nil, err
		}
		if err := fs.SyncMeta(t); err != nil {
			return nil, err
		}
	}
	// The extended cache attaches after recovery: redo replay has rolled
	// the tablespace to the newest committed state, so the cache map's
	// revalidation compares surviving entries against final content.
	if cfg.CacheDev != nil {
		if err := e.attachCache(t, cfg.CacheDev); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// attachCache opens the flash-extended cache on dev (recovering any
// surviving warm map) and wires it into the buffer pool: misses try the
// cache before the tablespace, and clean evictions fill it.
func (e *Engine) attachCache(t *sim.Task, dev *ssd.Device) error {
	ps := int64(e.cfg.PageSize)
	c, err := extcache.Open(t, dev, extcache.Config{
		PageSize: e.cfg.PageSize,
		Durable:  e.cfg.CacheWriteBack,
		MainRead: func(t *sim.Task, pageNo uint32, dst []byte) error {
			_, err := e.file.ReadAt(t, dst, ps*int64(pageNo))
			return err
		},
		PageLSN: func(d []byte) (uint64, bool) {
			return btree.LSN(d), btree.VerifyChecksum(d)
		},
	})
	if err != nil {
		return err
	}
	e.cache = c
	e.pool.CacheRead = func(t *sim.Task, pageNo uint32, dst []byte) (bool, error) {
		return c.Get(t, pageNo, dst)
	}
	e.pool.OnEvict = func(t *sim.Task, pageNo uint32, data []byte) {
		c.Put(t, pageNo, data)
	}
	return nil
}

// Cache exposes the flash-extended cache (nil when not configured).
func (e *Engine) Cache() *extcache.Cache { return e.cache }

// initMeta formats the meta page of a fresh tablespace.
func (e *Engine) initMeta(t *sim.Task) error {
	f, err := e.pool.Get(t, 0)
	if err != nil {
		return err
	}
	for i := range f.Data {
		f.Data[i] = 0
	}
	binary.LittleEndian.PutUint32(f.Data[12:], metaMagic)
	binary.LittleEndian.PutUint32(f.Data[16:], e.hwm)
	f.MarkDirty()
	f.Release()
	return nil
}

// persistMeta serializes the registry into the meta page frame.
// Layout (after the common 12-byte checksum/LSN header):
//
//	12 u32 magic, 16 u32 hwm, 20 u16 table count; entries start at 26
//	(bytes 22..26 hold the page number stamped at flush time): per table
//	[nameLen u8][name][root u32]
func (e *Engine) persistMeta(t *sim.Task) error {
	f, err := e.pool.Get(t, 0)
	if err != nil {
		return err
	}
	d := f.Data
	for i := 12; i < len(d); i++ {
		d[i] = 0
	}
	binary.LittleEndian.PutUint32(d[12:], metaMagic)
	binary.LittleEndian.PutUint32(d[16:], e.hwm)
	binary.LittleEndian.PutUint16(d[20:], uint16(len(e.order)))
	off := 26
	for _, name := range e.order {
		tb := e.tables[name]
		d[off] = byte(len(name))
		copy(d[off+1:], name)
		off += 1 + len(name)
		binary.LittleEndian.PutUint32(d[off:], tb.tree.Root())
		off += 4
	}
	f.MarkDirty()
	f.Release()
	return nil
}

// loadMeta parses the meta page and rebuilds the table registry.
func (e *Engine) loadMeta(t *sim.Task) error {
	f, err := e.pool.Get(t, 0)
	if err != nil {
		return err
	}
	defer f.Release()
	d := f.Data
	if binary.LittleEndian.Uint32(d[12:]) != metaMagic {
		return fmt.Errorf("innodb: bad meta page magic")
	}
	e.hwm = binary.LittleEndian.Uint32(d[16:])
	n := int(binary.LittleEndian.Uint16(d[20:]))
	e.tables = make(map[string]*Table)
	e.order = nil
	off := 26
	for i := 0; i < n; i++ {
		nl := int(d[off])
		name := string(d[off+1 : off+1+nl])
		off += 1 + nl
		root := binary.LittleEndian.Uint32(d[off:])
		off += 4
		tb := &Table{e: e, name: name, id: i}
		tb.tree = btree.Open(&pager{e: e}, root, tb.onRootChange)
		e.tables[name] = tb
		e.order = append(e.order, name)
	}
	return nil
}

// pager adapts the engine to the btree.Pager interface.
type pager struct{ e *Engine }

func (p *pager) Get(t *sim.Task, pageNo uint32) (*bufpool.Frame, error) {
	return p.e.pool.Get(t, pageNo)
}

func (p *pager) Alloc(t *sim.Task) (uint32, error) {
	e := p.e
	n := e.hwm
	if int64(n+1)*int64(e.cfg.PageSize) > e.cfg.DataBytes {
		return 0, fmt.Errorf("innodb: tablespace full (%d pages)", n)
	}
	e.hwm++
	if err := e.persistMeta(t); err != nil {
		return 0, err
	}
	return n, nil
}

func (p *pager) Free(t *sim.Task, pageNo uint32) error { return nil }
func (p *pager) PageSize() int                         { return p.e.cfg.PageSize }

func (tb *Table) onRootChange(uint32) {
	// The new root is persisted with the rest of the registry; the caller
	// is inside a transaction apply, so the meta page is logged with it.
	// persistMeta needs a task; root changes only happen under apply, and
	// the engine persists the registry at the end of every apply.
}

// CreateTable registers a new table with an empty root.
func (e *Engine) CreateTable(t *sim.Task, name string) (*Table, error) {
	e.mu.Lock(t)
	defer e.mu.Unlock(t)
	if e.Degraded() {
		return nil, ErrReadOnly
	}
	if _, ok := e.tables[name]; ok {
		return nil, fmt.Errorf("innodb: table %s exists", name)
	}
	root, err := (&pager{e: e}).Alloc(t)
	if err != nil {
		return nil, err
	}
	f, err := e.pool.Get(t, root)
	if err != nil {
		return nil, err
	}
	btree.InitPage(f.Data)
	f.MarkDirty()
	f.Release()
	tb := &Table{e: e, name: name, id: len(e.order)}
	tb.tree = btree.Open(&pager{e: e}, root, tb.onRootChange)
	e.tables[name] = tb
	e.order = append(e.order, name)
	if err := e.persistMeta(t); err != nil {
		return nil, err
	}
	// DDL is made durable immediately (redo records only cover DML).
	if err := e.checkpointLocked(t); err != nil {
		return nil, err
	}
	return tb, nil
}

// Table returns a registered table or nil.
func (e *Engine) Table(name string) *Table { return e.tables[name] }

// Stats returns a snapshot of engine counters. Counters are maintained
// with atomics, so the snapshot is safe to take while sessions run.
func (e *Engine) Stats() Stats {
	var st Stats
	st.Commits = atomic.LoadInt64(&e.st.Commits)
	st.FlushBatches = atomic.LoadInt64(&e.st.FlushBatches)
	st.PagesToDWB = atomic.LoadInt64(&e.st.PagesToDWB)
	st.PagesToHome = atomic.LoadInt64(&e.st.PagesToHome)
	st.SharePairs = atomic.LoadInt64(&e.st.SharePairs)
	st.Checkpoints = atomic.LoadInt64(&e.st.Checkpoints)
	st.TornRestored = atomic.LoadInt64(&e.st.TornRestored)
	st.RedoApplied = atomic.LoadInt64(&e.st.RedoApplied)
	st.GroupCommits = e.gc.GroupCommits()
	st.GroupedTxns = e.gc.GroupedTxns()
	st.ReadOnlyTransitions = e.ReadOnlyTransitions()
	st.Degraded = e.Degraded()
	if e.cache != nil {
		cs := e.cache.Stats()
		st.CacheHits = cs.Hits
		st.CacheFills = cs.Fills
		st.CacheDirtyFills = cs.DirtyFills
		st.CacheWritebacks = cs.Writebacks
		st.CacheVerifyFails = cs.VerifyFailures
		st.CacheDegraded = cs.Degraded
	}
	return st
}

// Pool exposes buffer pool statistics.
func (e *Engine) Pool() *bufpool.Pool { return e.pool }

// Log exposes the redo log (for experiment instrumentation).
func (e *Engine) Log() *wal.Log { return e.log }

// Checkpoint flushes all dirty pages and truncates the redo log. After
// degradation it refuses: truncating redo while dirty pages cannot reach
// their homes would lose committed data.
func (e *Engine) Checkpoint(t *sim.Task) error {
	e.mu.Lock(t)
	defer e.mu.Unlock(t)
	return e.checkpointLocked(t)
}

// checkpointLocked is Checkpoint with e.mu already held. It first drains
// in-flight group commits: their records must be durable before the redo
// log is truncated underneath them.
func (e *Engine) checkpointLocked(t *sim.Task) error {
	if e.Degraded() {
		return ErrReadOnly
	}
	e.gc.Drain(t)
	if err := e.pool.FlushAll(t); err != nil {
		return e.Note(err)
	}
	// Write-back cache: dirty cache entries must reach their tablespace
	// homes before redo is truncated — after this point redo no longer
	// covers them, so the cache must not be their sole holder. A failed
	// writeback (unreadable dirty entry on a dying cache device) aborts
	// the checkpoint: redo is preserved and nothing committed is lost.
	if e.cache != nil && e.cfg.CacheWriteBack {
		if err := e.cacheWriteback(t); err != nil {
			return e.Note(err)
		}
	}
	if err := e.fs.SyncMeta(t); err != nil {
		return e.Note(err)
	}
	if err := e.log.Truncate(t); err != nil {
		return e.Note(err)
	}
	if e.cache != nil {
		// Persist the cache map alongside the engine checkpoint so a crash
		// restarts with a warm cache (failures only cost warmness).
		e.cache.Checkpoint(t)
	}
	e.imagesSinceCkpt = 0
	atomic.AddInt64(&e.st.Checkpoints, 1)
	return nil
}
