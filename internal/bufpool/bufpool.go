// Package bufpool implements the database buffer pool: a fixed number of
// page frames cached over a file, with LRU replacement, pin counts, a
// dirty (flush) list, and a pluggable batch flusher so the engine decides
// *how* dirty pages reach storage — in place (DWB-Off), through the
// doublewrite buffer (DWB-On), or via a doublewrite plus SHARE remap.
package bufpool

import (
	"container/list"
	"fmt"
	"io"
	"sort"
	"sync"

	"share/internal/fsim"
	"share/internal/sim"
)

// Flusher writes a batch of dirty pages to the data file durably. The
// engine supplies the policy (doublewrite, share, in-place).
type Flusher interface {
	FlushBatch(t *sim.Task, pages []PageImage) error
}

// PageImage is one dirty page handed to the Flusher. Its Data is owned
// by the pool frame; flushers must not retain it.
type PageImage = fsim.PageImage

// Frame is a pinned page in the pool. Callers mutate Data in place and
// call MarkDirty, then Release.
type Frame struct {
	pool   *Pool
	pageNo uint32
	Data   []byte
	pins   int
	dirty  bool
	elem   *list.Element // position in LRU
}

// Pool is a buffer pool over one file.
type Pool struct {
	file     *fsim.File
	pageSize int
	capacity int
	flusher  Flusher

	frames map[uint32]*Frame
	lru    *list.List // front = most recently used
	// FlushBatchSize is how many dirty pages are flushed together when
	// eviction or a checkpoint needs clean frames (the doublewrite batch).
	FlushBatchSize int

	// No-steal state: FlushSome skips the pages the transaction being
	// applied has dirtied so far (collecting/txnPages, guarded by the
	// engine latch like the rest of the pool) and every page holding a
	// Protect pin. The pins have their own leaf lock because Unprotect runs
	// after the commit's log sync, outside the engine latch.
	collecting bool
	txnPages   map[uint32]bool
	protMu     sync.Mutex
	protected  map[uint32]int

	// MissOverlay, when set, is consulted on a cache miss before the file:
	// a non-nil return supplies the page content. WAL-style engines use it
	// to serve pages whose newest version lives in the log, not the file.
	MissOverlay func(pageNo uint32) []byte
	// CacheRead, when set, is consulted on a miss after MissOverlay and
	// before the file read: returning true means dst was filled from a
	// second-tier cache (the flash-extended cache). On (false, nil) dst
	// must be left zeroed and the pool falls back to the file; an error
	// fails the Get (the cache holds the only live copy but cannot
	// produce it — falling back would serve stale data).
	CacheRead func(t *sim.Task, pageNo uint32, dst []byte) (bool, error)
	// OnEvict, when set, observes every clean frame leaving the pool with
	// its final content — the fill point of a flash-extended cache. The
	// callback must not retain data.
	OnEvict func(t *sim.Task, pageNo uint32, data []byte)

	// Stats.
	hits, misses int64
	evictions    int64
	flushedPages int64
}

// New builds a pool of capacity pages of pageSize bytes over file.
func New(file *fsim.File, pageSize, capacity int, flusher Flusher) (*Pool, error) {
	if capacity < 2 {
		return nil, fmt.Errorf("bufpool: capacity %d too small", capacity)
	}
	return &Pool{
		file:           file,
		pageSize:       pageSize,
		capacity:       capacity,
		flusher:        flusher,
		frames:         make(map[uint32]*Frame),
		lru:            list.New(),
		FlushBatchSize: 32,
		protected:      make(map[uint32]int),
	}, nil
}

// BeginCollect starts a transaction's dirty set: from here to EndCollect
// every page marked dirty is recorded and excluded from FlushSome, so no
// part of an unfinished transaction can reach storage (no-steal).
func (p *Pool) BeginCollect() {
	p.collecting = true
	p.txnPages = make(map[uint32]bool)
}

// EndCollect closes the dirty set and returns its pages in ascending
// order — what the engine logs or stages at commit. The pages lose their
// no-steal cover here; a commit that is not yet durable hands them to
// Protect before anything can flush.
func (p *Pool) EndCollect() []uint32 {
	pages := make([]uint32, 0, len(p.txnPages))
	for pageNo := range p.txnPages {
		pages = append(pages, pageNo)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	p.collecting = false
	p.txnPages = nil
	return pages
}

// Protect pins pages against FlushSome until Unprotect. Pins are
// refcounted: concurrent commits may have dirtied the same page.
func (p *Pool) Protect(pages []uint32) {
	p.protMu.Lock()
	for _, pageNo := range pages {
		p.protected[pageNo]++
	}
	p.protMu.Unlock()
}

// Unprotect drops the pins taken by Protect. Unlike the rest of the pool
// it is safe to call without the engine latch.
func (p *Pool) Unprotect(pages []uint32) {
	p.protMu.Lock()
	for _, pageNo := range pages {
		if p.protected[pageNo]--; p.protected[pageNo] <= 0 {
			delete(p.protected, pageNo)
		}
	}
	p.protMu.Unlock()
}

// PageSize returns the pool's page size.
func (p *Pool) PageSize() int { return p.pageSize }

// Capacity returns the frame count.
func (p *Pool) Capacity() int { return p.capacity }

// Get pins the frame for pageNo, reading it from the file on a miss.
// Pages beyond EOF read as zeroes (fresh pages).
func (p *Pool) Get(t *sim.Task, pageNo uint32) (*Frame, error) {
	return p.get(t, pageNo, true)
}

// GetFresh pins the frame for pageNo without reading the file on a miss:
// the caller guarantees the page's current on-storage content is dead
// (e.g. the first touch of a newly extended heap page). The frame arrives
// zeroed.
func (p *Pool) GetFresh(t *sim.Task, pageNo uint32) (*Frame, error) {
	return p.get(t, pageNo, false)
}

func (p *Pool) get(t *sim.Task, pageNo uint32, read bool) (*Frame, error) {
	if f, ok := p.frames[pageNo]; ok {
		p.hits++
		f.pins++
		p.lru.MoveToFront(f.elem)
		return f, nil
	}
	p.misses++
	if err := p.makeRoom(t); err != nil {
		return nil, err
	}
	data := make([]byte, p.pageSize)
	served := false
	if ov := p.overlay(pageNo); ov != nil {
		copy(data, ov)
		served = true
	} else if read && p.CacheRead != nil {
		hit, err := p.CacheRead(t, pageNo, data)
		if err != nil {
			return nil, err
		}
		served = hit
	}
	if !served {
		off := int64(pageNo) * int64(p.pageSize)
		if read && off < p.file.Size() {
			if _, err := p.file.ReadAt(t, data, off); err != nil && err != io.EOF {
				return nil, err
			}
		}
	}
	f := &Frame{pool: p, pageNo: pageNo, Data: data, pins: 1}
	f.elem = p.lru.PushFront(f)
	p.frames[pageNo] = f
	return f, nil
}

// makeRoom evicts the least recently used unpinned clean frame, flushing a
// batch of dirty pages first if no clean victim exists.
func (p *Pool) makeRoom(t *sim.Task) error {
	for len(p.frames) >= p.capacity {
		victim := p.cleanVictim()
		if victim == nil {
			if err := p.FlushSome(t, p.FlushBatchSize); err != nil {
				return err
			}
			victim = p.cleanVictim()
			if victim == nil {
				return fmt.Errorf("bufpool: all %d frames pinned", p.capacity)
			}
		}
		if p.OnEvict != nil {
			p.OnEvict(t, victim.pageNo, victim.Data)
		}
		p.lru.Remove(victim.elem)
		delete(p.frames, victim.pageNo)
		p.evictions++
	}
	return nil
}

// cleanVictim returns the LRU unpinned clean frame, or nil.
func (p *Pool) cleanVictim() *Frame {
	for e := p.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*Frame)
		if f.pins == 0 && !f.dirty {
			return f
		}
	}
	return nil
}

// FlushSome flushes up to n dirty unpinned pages (LRU-first) through the
// engine's Flusher as one batch, leaving no-steal pages alone.
func (p *Pool) FlushSome(t *sim.Task, n int) error {
	var batch []PageImage
	var frames []*Frame
	p.protMu.Lock()
	for e := p.lru.Back(); e != nil && len(batch) < n; e = e.Prev() {
		f := e.Value.(*Frame)
		noSteal := p.collecting && p.txnPages[f.pageNo] || p.protected[f.pageNo] > 0
		if f.dirty && f.pins == 0 && !noSteal {
			batch = append(batch, PageImage{PageNo: f.pageNo, Data: f.Data})
			frames = append(frames, f)
		}
	}
	p.protMu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	if err := p.flusher.FlushBatch(t, batch); err != nil {
		return err
	}
	for _, f := range frames {
		f.dirty = false
	}
	p.flushedPages += int64(len(batch))
	return nil
}

// FlushAll flushes every dirty page (checkpoint).
func (p *Pool) FlushAll(t *sim.Task) error {
	for {
		var batch []PageImage
		var frames []*Frame
		for e := p.lru.Back(); e != nil && len(batch) < p.FlushBatchSize; e = e.Prev() {
			f := e.Value.(*Frame)
			if f.dirty {
				batch = append(batch, PageImage{PageNo: f.pageNo, Data: f.Data})
				frames = append(frames, f)
			}
		}
		if len(batch) == 0 {
			return nil
		}
		if err := p.flusher.FlushBatch(t, batch); err != nil {
			return err
		}
		for _, f := range frames {
			f.dirty = false
		}
		p.flushedPages += int64(len(batch))
	}
}

// DirtyCount returns the number of dirty frames.
func (p *Pool) DirtyCount() int {
	n := 0
	for _, f := range p.frames {
		if f.dirty {
			n++
		}
	}
	return n
}

// Len returns the number of resident frames.
func (p *Pool) Len() int { return len(p.frames) }

// Stats reports pool activity.
type Stats struct {
	Hits, Misses, Evictions, FlushedPages int64
}

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() Stats {
	return Stats{Hits: p.hits, Misses: p.misses, Evictions: p.evictions, FlushedPages: p.flushedPages}
}

// PageNo returns the frame's page number.
func (f *Frame) PageNo() uint32 { return f.pageNo }

// MarkDirty flags the frame for the next flush.
func (f *Frame) MarkDirty() {
	f.dirty = true
	if f.pool.collecting {
		f.pool.txnPages[f.pageNo] = true
	}
}

// Release unpins the frame.
func (f *Frame) Release() {
	if f.pins <= 0 {
		panic("bufpool: release of unpinned frame")
	}
	f.pins--
}

func (p *Pool) overlay(pageNo uint32) []byte {
	if p.MissOverlay == nil {
		return nil
	}
	return p.MissOverlay(pageNo)
}

// CleanAll marks every frame clean without writing anything — used by
// engines whose commit protocol made the content durable elsewhere (e.g.
// a write-ahead log) so the frames no longer need flushing.
func (p *Pool) CleanAll() {
	for _, f := range p.frames {
		f.dirty = false
	}
}

// Drop discards all frames without flushing (crash simulation).
func (p *Pool) Drop() {
	p.frames = make(map[uint32]*Frame)
	p.lru = list.New()
}
