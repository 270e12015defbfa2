// Package pgmini is a miniature PostgreSQL-style engine built for the
// paper's §5.3.1 side experiment: it runs a pgbench (TPC-B-like) workload
// against a heap-table store whose WAL can run with full_page_writes on
// (a full page image is logged on the first modification of a page after
// each checkpoint — PostgreSQL's torn-page defence), off (deltas only,
// fast but unsafe on plain storage), or in SHARE mode (deltas only, with
// checkpoint page propagation made atomic by SHARE remapping, which is
// the integration the paper proposes).
package pgmini

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"

	"share/internal/bufpool"
	"share/internal/fsim"
	"share/internal/ftl"
	"share/internal/sim"
	"share/internal/ssd"
	"share/internal/wal"
)

// ErrReadOnly is returned by mutating operations after the data device
// degraded to read-only (spare blocks exhausted). Balance reads keep
// serving from the pool and the still-readable heap.
var ErrReadOnly = fmt.Errorf("pgmini: database is read-only: %w", ftl.ErrReadOnly)

// Mode selects the torn-page strategy.
type Mode int

// Torn-page strategies.
const (
	FPWOn Mode = iota
	FPWOff
	FPWShare
)

func (m Mode) String() string {
	switch m {
	case FPWOn:
		return "full_page_writes=on"
	case FPWOff:
		return "full_page_writes=off"
	case FPWShare:
		return "SHARE"
	}
	return "?"
}

// Config sizes the database.
type Config struct {
	Scale     int // pgbench scale factor: Scale*2500 accounts
	Mode      Mode
	PageSize  int
	PoolBytes int64
	LogPages  uint32
	// CheckpointEvery flushes dirty pages and truncates the WAL after
	// this many transactions.
	CheckpointEvery int
	// StreamHints tags device writes with per-object stream hints on
	// multi-stream devices: the heap takes stream 0 and the SHARE-mode
	// checkpoint staging file (full-page writes' stand-in) stream 1 on the
	// data device, and the WAL claims stream 0 of its own log device. No
	// effect when the devices are single-stream.
	StreamHints bool
}

const (
	tupleSize        = 100
	accountsPerScale = 2500
	tellersPerScale  = 10
	branchesPerScale = 1
	pageHdrSize      = 16 // checksum u32, lsn u64, reserved
	stageSlots       = 64 // pages in the SHARE-mode checkpoint staging file
)

// DB is one pgmini database.
//
// Concurrency: a database latch (db.mu) serializes the transaction apply
// phase — heap updates, WAL appends and the commit record. Sessions then
// release the latch and rendezvous at the group committer (db.gc): one
// leader fsyncs the WAL for every commit record appended so far, so the
// flush overlaps the next session's apply. Pages dirtied by a transaction
// are collected by the pool and stay pinned (refcounted, no-steal) until
// its commit record is durable — PostgreSQL proper enforces the same
// WAL-before-data rule via page LSNs.
type DB struct {
	fs      *fsim.FS
	file    *fsim.File
	scratch *fsim.File // SHARE-mode checkpoint staging area
	logDev  *ssd.Device
	log     *wal.Log
	pool    *bufpool.Pool
	cfg     Config

	perPage                                      int
	branches                                     int
	tellers                                      int
	accounts                                     int
	pagesFor                                     func(rows int) int
	branchesAt, tellersAt, accountsAt, historyAt uint32
	historyRows                                  int

	mu sim.Mutex // database latch: pool, heap layout, WAL append order

	loggedSinceCkpt map[uint32]bool // FPW first-touch set
	txnsSinceCkpt   int

	// gc is the group-commit rendezvous; checkpoints drain it before
	// truncating the WAL.
	gc *wal.GroupCommitter

	// Background, when set, is the task checkpoint and background-writer
	// flushes are charged to — PostgreSQL's checkpointer runs alongside
	// the backends, contending for the data device but not serializing
	// with the transaction stream.
	Background *sim.Task

	// Latched when a data-device write fails with ftl.ErrReadOnly; mutating
	// operations then fail fast with ErrReadOnly while reads keep serving.
	ftl.ReadOnlyLatch

	st Stats // counters updated via atomics; read with Stats()
}

// Stats counts engine activity.
type Stats struct {
	Commits          int64
	WALRecords       int64
	WALPages         int64 // log device pages written
	FullImages       int64 // full page images logged (FPW on)
	Checkpoints      int64
	DataPagesFlushed int64

	GroupCommits int64 // WAL syncs issued by group-commit leaders
	GroupedTxns  int64 // commits that rode another session's sync

	WALReadTruncations  int64 // WAL scans cut short by unrecoverable read faults
	ReadOnlyTransitions int64 // device degradations observed (0 or 1)
	Degraded            bool  // gauge: database is serving read-only
}

// WAL record kinds.
const (
	pgRecDelta  = 1 // [kind][pageNo u32][off u16][len u16][bytes]
	pgRecImage  = 2 // [kind][pageNo u32][image]
	pgRecCommit = 3
)

// Open creates a database, or — when a pgdata file already exists —
// recovers it: committed WAL records (full-page images and tuple deltas)
// are replayed in order onto the heap, then a checkpoint truncates the
// log. With Mode FPWOff a torn page cannot be repaired, which is exactly
// the unsafety the paper's experiment quantifies; FPWOn restores the page
// from its image, and FPWShare never tears (checkpoint propagation is an
// atomic remap).
func Open(t *sim.Task, fs *fsim.FS, logDev *ssd.Device, cfg Config) (*DB, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = fs.Device().PageSize()
	}
	if cfg.PageSize%fs.Device().PageSize() != 0 {
		return nil, fmt.Errorf("pgmini: page size %d not a device page multiple", cfg.PageSize)
	}
	if cfg.PoolBytes == 0 {
		cfg.PoolBytes = int64(cfg.PageSize) * 128
	}
	if cfg.LogPages == 0 {
		cfg.LogPages = 8192
	}
	if int(cfg.LogPages) > logDev.Capacity() {
		cfg.LogPages = uint32(logDev.Capacity())
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 2000
	}
	db := &DB{
		fs: fs, logDev: logDev, cfg: cfg,
		loggedSinceCkpt: make(map[uint32]bool),
		ReadOnlyLatch:   ftl.NewReadOnlyLatch(ErrReadOnly),
	}
	db.perPage = (cfg.PageSize - pageHdrSize) / tupleSize
	db.branches = branchesPerScale * cfg.Scale
	db.tellers = tellersPerScale * cfg.Scale
	db.accounts = accountsPerScale * cfg.Scale
	db.pagesFor = func(rows int) int { return (rows + db.perPage - 1) / db.perPage }

	db.branchesAt = 0
	db.tellersAt = db.branchesAt + uint32(db.pagesFor(db.branches))
	db.accountsAt = db.tellersAt + uint32(db.pagesFor(db.tellers))
	db.historyAt = db.accountsAt + uint32(db.pagesFor(db.accounts))

	existing := fs.Exists("pgdata")
	var file *fsim.File
	var err error
	if existing {
		if file, err = fs.Open(t, "pgdata"); err != nil {
			return nil, err
		}
	} else {
		if file, err = fs.Create(t, "pgdata"); err != nil {
			return nil, err
		}
	}
	db.file = file
	totalPages := int64(db.historyAt) + int64(db.pagesFor(db.accounts)) // history grows; preallocate some
	if err := file.Allocate(t, 0, totalPages*int64(cfg.PageSize)); err != nil {
		return nil, err
	}
	if cfg.Mode == FPWShare {
		if fs.Exists("pgdata.stage") {
			db.scratch, err = fs.Open(t, "pgdata.stage")
		} else {
			db.scratch, err = fs.Create(t, "pgdata.stage")
		}
		if err != nil {
			return nil, err
		}
		if err := db.scratch.Allocate(t, 0, int64(cfg.PageSize)*stageSlots); err != nil {
			return nil, err
		}
	}
	log, err := wal.New(logDev, 0, cfg.LogPages)
	if err != nil {
		return nil, err
	}
	db.log = log
	db.gc = wal.NewGroupCommitter(log)
	if cfg.StreamHints {
		if fs.Device().Streams() > 1 {
			db.file.SetStream(0) // heap pages: overwritten in place, zipfian-hot
			if db.scratch != nil {
				db.scratch.SetStream(1) // staging slots: dead after every checkpoint
			}
		}
		if logDev.Streams() > 0 {
			db.log.SetStream(0)
		}
	}
	pool, err := bufpool.New(file, cfg.PageSize, int(cfg.PoolBytes/int64(cfg.PageSize)), &pgFlusher{db: db})
	if err != nil {
		return nil, err
	}
	db.pool = pool
	if existing {
		if err := db.recover(t); err != nil {
			return nil, err
		}
	} else if err := db.initData(t); err != nil {
		return nil, err
	}
	return db, nil
}

// recover replays committed WAL records onto the heap, recounts the
// history rows, and checkpoints.
func (db *DB) recover(t *sim.Task) error {
	recs, err := db.log.ReadAll(t)
	if err != nil {
		return err
	}
	ps := int64(db.cfg.PageSize)
	// Records are grouped per transaction, terminated by a commit marker;
	// an incomplete trailing group is discarded.
	var pending [][]byte
	buf := make([]byte, db.cfg.PageSize)
	apply := func(rec []byte) error {
		switch rec[0] {
		case pgRecImage:
			pageNo := binary.LittleEndian.Uint32(rec[1:])
			if _, err := db.file.WriteAt(t, rec[5:5+db.cfg.PageSize], ps*int64(pageNo)); err != nil {
				return err
			}
		case pgRecDelta:
			pageNo := binary.LittleEndian.Uint32(rec[1:])
			off := int(binary.LittleEndian.Uint16(rec[5:]))
			n := int(binary.LittleEndian.Uint16(rec[7:]))
			if _, err := db.file.ReadAt(t, buf, ps*int64(pageNo)); err != nil {
				return err
			}
			copy(buf[off:off+n], rec[9:9+n])
			if _, err := db.file.WriteAt(t, buf, ps*int64(pageNo)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, rec := range recs {
		if len(rec) == 0 {
			continue
		}
		if rec[0] == pgRecCommit {
			for _, r := range pending {
				if err := apply(r); err != nil {
					return err
				}
			}
			pending = pending[:0]
			continue
		}
		pending = append(pending, rec)
	}
	if err := db.file.Sync(t); err != nil {
		return err
	}
	// Recount history rows: they were appended densely, and every live row
	// carries a nonzero random payload.
	db.historyRows = 0
scan:
	for p := db.historyAt; ; p++ {
		if ps*int64(p) >= db.file.Size() {
			break
		}
		if _, err := db.file.ReadAt(t, buf, ps*int64(p)); err != nil {
			break
		}
		for s := 0; s < db.perPage; s++ {
			off := pageHdrSize + s*tupleSize
			if binary.LittleEndian.Uint64(buf[off:]) == 0 {
				break scan
			}
			db.historyRows++
		}
	}
	return db.Checkpoint(t)
}

// initData zero-initializes balances (pages are already zero) and
// checkpoints so the measured run starts clean.
func (db *DB) initData(t *sim.Task) error {
	// Touch every table page so it exists on storage with a valid layout.
	last := db.historyAt
	for p := uint32(0); p < last; p++ {
		f, err := db.pool.Get(t, p)
		if err != nil {
			return err
		}
		f.MarkDirty()
		f.Release()
		// Flush incrementally to keep the pool small.
		if db.pool.DirtyCount() >= db.pool.Capacity()/2 {
			if err := db.pool.FlushAll(t); err != nil {
				return err
			}
		}
	}
	return db.Checkpoint(t)
}

// pgFlusher writes dirty pages in place; in SHARE mode each batch is
// staged in the scratch area and remapped, making page propagation atomic
// without any full-page WAL images.
type pgFlusher struct{ db *DB }

func (fl *pgFlusher) FlushBatch(t *sim.Task, pages []bufpool.PageImage) error {
	db := fl.db
	ps := int64(db.cfg.PageSize)
	atomic.AddInt64(&db.st.DataPagesFlushed, int64(len(pages)))
	if db.cfg.Mode == FPWShare {
		return db.file.StageShare(t, db.scratch, pages)
	}
	for _, pg := range pages {
		if _, err := db.file.WriteAt(t, pg.Data, int64(pg.PageNo)*ps); err != nil {
			return err
		}
	}
	return db.file.Sync(t)
}

// Checkpoint flushes dirty pages, truncates the WAL and resets the FPW
// first-touch set. Data flushing is charged to the dataTask (the
// background checkpointer when one is set); the WAL truncate runs on
// walTask so the log device's queue stays aligned with the backends.
// After degradation it refuses: truncating the WAL while dirty pages
// cannot reach the heap would lose committed transactions.
func (db *DB) Checkpoint(t *sim.Task) error {
	db.mu.Lock(t)
	defer db.mu.Unlock(t)
	if db.Degraded() {
		return ErrReadOnly
	}
	return db.Note(db.checkpoint(t, t))
}

// checkpoint runs with db.mu held. It first drains in-flight group
// commits: their WAL records must be durable before the ring is truncated
// underneath them.
func (db *DB) checkpoint(dataTask, walTask *sim.Task) error {
	db.gc.Drain(walTask)
	if err := db.pool.FlushAll(dataTask); err != nil {
		return err
	}
	if err := db.fs.SyncMeta(dataTask); err != nil {
		return err
	}
	if err := db.log.Truncate(walTask); err != nil {
		return err
	}
	db.loggedSinceCkpt = make(map[uint32]bool)
	db.txnsSinceCkpt = 0
	atomic.AddInt64(&db.st.Checkpoints, 1)
	return nil
}

// updateTuple adds delta to the 8-byte balance of row in the table whose
// pages start at base, WAL-logging the change (and a full page image on
// first touch when FPW is on).
func (db *DB) updateTuple(t *sim.Task, base uint32, row int, delta int64) error {
	pageNo := base + uint32(row/db.perPage)
	off := pageHdrSize + (row%db.perPage)*tupleSize
	f, err := db.pool.Get(t, pageNo)
	if err != nil {
		return err
	}
	cur := int64(binary.LittleEndian.Uint64(f.Data[off:]))
	binary.LittleEndian.PutUint64(f.Data[off:], uint64(cur+delta))
	f.MarkDirty()

	if db.cfg.Mode == FPWOn && !db.loggedSinceCkpt[pageNo] {
		rec := make([]byte, 5+db.cfg.PageSize)
		rec[0] = pgRecImage
		binary.LittleEndian.PutUint32(rec[1:], pageNo)
		copy(rec[5:], f.Data)
		if _, err := db.log.Append(t, rec); err != nil {
			f.Release()
			return err
		}
		db.loggedSinceCkpt[pageNo] = true
		atomic.AddInt64(&db.st.FullImages, 1)
		atomic.AddInt64(&db.st.WALRecords, 1)
	}
	f.Release()

	rec := make([]byte, 1+4+2+2+8)
	rec[0] = pgRecDelta
	binary.LittleEndian.PutUint32(rec[1:], pageNo)
	binary.LittleEndian.PutUint16(rec[5:], uint16(off))
	binary.LittleEndian.PutUint16(rec[7:], 8)
	binary.LittleEndian.PutUint64(rec[9:], uint64(cur+delta))
	if _, err := db.log.Append(t, rec); err != nil {
		return err
	}
	atomic.AddInt64(&db.st.WALRecords, 1)
	return nil
}

// readBalance returns the balance of an account row.
func (db *DB) readBalance(t *sim.Task, base uint32, row int) (int64, error) {
	pageNo := base + uint32(row/db.perPage)
	off := pageHdrSize + (row%db.perPage)*tupleSize
	f, err := db.pool.Get(t, pageNo)
	if err != nil {
		return 0, err
	}
	v := int64(binary.LittleEndian.Uint64(f.Data[off:]))
	f.Release()
	return v, nil
}

// insertHistory appends a history row holding the nonzero value v.
func (db *DB) insertHistory(t *sim.Task, v uint64) error {
	row := db.historyRows
	db.historyRows++
	pageNo := db.historyAt + uint32(row/db.perPage)
	off := pageHdrSize + (row%db.perPage)*tupleSize
	var f *bufpool.Frame
	var err error
	if row%db.perPage == 0 {
		// First touch of a fresh heap page: no read needed.
		f, err = db.pool.GetFresh(t, pageNo)
	} else {
		f, err = db.pool.Get(t, pageNo)
	}
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(f.Data[off:], v)
	f.MarkDirty()
	if db.cfg.Mode == FPWOn && !db.loggedSinceCkpt[pageNo] {
		rec := make([]byte, 5+db.cfg.PageSize)
		rec[0] = pgRecImage
		binary.LittleEndian.PutUint32(rec[1:], pageNo)
		copy(rec[5:], f.Data)
		if _, err := db.log.Append(t, rec); err != nil {
			f.Release()
			return err
		}
		db.loggedSinceCkpt[pageNo] = true
		atomic.AddInt64(&db.st.FullImages, 1)
		atomic.AddInt64(&db.st.WALRecords, 1)
	}
	f.Release()
	rec := make([]byte, 17)
	rec[0] = pgRecDelta
	binary.LittleEndian.PutUint32(rec[1:], pageNo)
	binary.LittleEndian.PutUint16(rec[5:], uint16(off))
	binary.LittleEndian.PutUint16(rec[7:], 8)
	binary.LittleEndian.PutUint64(rec[9:], v)
	if _, err := db.log.Append(t, rec); err != nil {
		return err
	}
	atomic.AddInt64(&db.st.WALRecords, 1)
	return nil
}

// TxnParams fully determines one TPC-B transaction, so a harness driving
// Txn directly can model the expected post-state (the crashcheck
// durability oracle does exactly that).
type TxnParams struct {
	Account, Teller, Branch int
	Delta                   int64
	HistoryVal              uint64 // must be nonzero
}

// RunTxn executes one pgbench TPC-B transaction: update an account, its
// teller and branch, insert a history row, read the account balance, and
// commit (fsync the WAL).
func (db *DB) RunTxn(t *sim.Task, rng *rand.Rand) error {
	p := TxnParams{
		Account:    rng.Intn(db.accounts),
		Teller:     rng.Intn(db.tellers),
		Branch:     rng.Intn(db.branches),
		Delta:      int64(rng.Intn(10000) - 5000),
		HistoryVal: uint64(rng.Int63()) | 1,
	}
	return db.Txn(t, p)
}

// Txn executes one TPC-B transaction with explicit parameters. The apply
// phase (heap updates + WAL appends) runs under the database latch; the
// WAL fsync happens in the group-commit rendezvous with the latch
// released, so concurrent sessions share one flush.
func (db *DB) Txn(t *sim.Task, p TxnParams) error {
	if db.Degraded() {
		return ErrReadOnly
	}
	return db.Note(db.runTxn(t, p))
}

func (db *DB) runTxn(t *sim.Task, p TxnParams) error {
	db.mu.Lock(t)
	db.pool.BeginCollect()
	fail := func(err error) error {
		db.pool.EndCollect()
		db.mu.Unlock(t)
		return err
	}
	if err := db.updateTuple(t, db.accountsAt, p.Account, p.Delta); err != nil {
		return fail(err)
	}
	if _, err := db.readBalance(t, db.accountsAt, p.Account); err != nil {
		return fail(err)
	}
	if err := db.updateTuple(t, db.tellersAt, p.Teller, p.Delta); err != nil {
		return fail(err)
	}
	if err := db.updateTuple(t, db.branchesAt, p.Branch, p.Delta); err != nil {
		return fail(err)
	}
	if err := db.insertHistory(t, p.HistoryVal|1); err != nil {
		return fail(err)
	}
	myLSN, err := db.log.Append(t, []byte{pgRecCommit})
	if err != nil {
		return fail(err)
	}

	// Hand the dirtied pages to the refcounted pin set (it outlives the
	// latch), register with the drain counter, and release the latch so
	// the next session applies while we sync.
	dirtied := db.pool.EndCollect()
	db.pool.Protect(dirtied)
	db.gc.Enter(t)
	db.mu.Unlock(t)

	err = db.gc.Sync(t, myLSN)
	db.pool.Unprotect(dirtied)
	if err != nil {
		return err
	}
	atomic.AddInt64(&db.st.Commits, 1)

	// Checkpoint / background-writer decisions need the latch back.
	db.mu.Lock(t)
	defer db.mu.Unlock(t)
	db.txnsSinceCkpt++
	bg := t
	if db.Background != nil {
		db.Background.AdvanceTo(t.Now())
		bg = db.Background
	}
	if db.txnsSinceCkpt >= db.cfg.CheckpointEvery || db.log.Remaining() < 128 {
		return db.checkpoint(bg, t)
	}
	// Background-writer stand-in: keep the dirty ratio bounded.
	if db.pool.DirtyCount() > db.pool.Capacity()*3/4 {
		return db.pool.FlushSome(bg, 16)
	}
	return nil
}

// Stats returns engine counters; WALPages reflects the log device.
// Counters are maintained with atomics, so the snapshot is safe to take
// while sessions run.
func (db *DB) Stats() Stats {
	var s Stats
	s.Commits = atomic.LoadInt64(&db.st.Commits)
	s.WALRecords = atomic.LoadInt64(&db.st.WALRecords)
	s.FullImages = atomic.LoadInt64(&db.st.FullImages)
	s.Checkpoints = atomic.LoadInt64(&db.st.Checkpoints)
	s.DataPagesFlushed = atomic.LoadInt64(&db.st.DataPagesFlushed)
	s.GroupCommits = db.gc.GroupCommits()
	s.GroupedTxns = db.gc.GroupedTxns()
	s.ReadOnlyTransitions = db.ReadOnlyTransitions()
	s.WALPages = db.log.PagesWritten()
	s.WALReadTruncations = db.log.ReadTruncations()
	s.Degraded = db.Degraded()
	return s
}

// WALBytes returns total WAL payload bytes appended.
func (db *DB) WALBytes() int64 { return db.log.BytesAppended() }

// LogDevice returns the WAL device (tests reopen against it).
func (db *DB) LogDevice() *ssd.Device { return db.logDev }

// Accounts returns the number of account rows.
func (db *DB) Accounts() int { return db.accounts }

// Balance exposes an account balance for tests and servers. It takes the
// database latch: the buffer pool is not safe for unlatched access.
func (db *DB) Balance(t *sim.Task, row int) (int64, error) {
	db.mu.Lock(t)
	defer db.mu.Unlock(t)
	return db.readBalance(t, db.accountsAt, row)
}

// Tellers returns the number of teller rows.
func (db *DB) Tellers() int { return db.tellers }

// Branches returns the number of branch rows.
func (db *DB) Branches() int { return db.branches }

// TellerBalance exposes a teller balance for tests.
func (db *DB) TellerBalance(t *sim.Task, row int) (int64, error) {
	db.mu.Lock(t)
	defer db.mu.Unlock(t)
	return db.readBalance(t, db.tellersAt, row)
}

// BranchBalance exposes a branch balance for tests.
func (db *DB) BranchBalance(t *sim.Task, row int) (int64, error) {
	db.mu.Lock(t)
	defer db.mu.Unlock(t)
	return db.readBalance(t, db.branchesAt, row)
}
