// Package sqlmini is a miniature SQLite-style embedded database: one
// B+tree in one file, single-writer transactions, and — following §3.3
// and §7 of the paper — three durability modes:
//
//	Rollback — SQLite's classic rollback journal: before-images of every
//	           page a transaction touches are journaled and fsynced, the
//	           pages are written in place and fsynced, and the journal is
//	           invalidated with a third fsync. Three syncs and double
//	           writes per commit.
//	WAL      — write-ahead logging: after-images append to a log with one
//	           fsync; home pages are rewritten later at checkpoints (the
//	           second write is deferred and batched, not avoided).
//	Share    — the paper's proposal: journaling simply turned off. The
//	           transaction's pages are staged once and SHARE remaps them
//	           onto their home locations atomically. One write per page,
//	           ever; recovery is a no-op.
package sqlmini

import (
	"encoding/binary"
	"fmt"

	"share/internal/btree"
	"share/internal/bufpool"
	"share/internal/fsim"
	"share/internal/sim"
)

// Mode selects the commit protocol.
type Mode int

// Commit protocols.
const (
	Rollback Mode = iota
	WAL
	Share
)

func (m Mode) String() string {
	switch m {
	case Rollback:
		return "rollback-journal"
	case WAL:
		return "wal"
	case Share:
		return "SHARE"
	}
	return "?"
}

// Config sizes the database.
type Config struct {
	Name       string
	Mode       Mode
	PageSize   int   // engine page size (device page multiple)
	CacheBytes int64 // page cache size
	// CheckpointEvery bounds the WAL: after this many logged pages the
	// WAL is checkpointed into the database file.
	CheckpointEvery int
	// StagePages bounds a transaction's dirty set in Share mode (the
	// scratch area size).
	StagePages int
}

func (c *Config) setDefaults(devPage int) error {
	if c.Name == "" {
		c.Name = "sql.db"
	}
	if c.PageSize == 0 {
		c.PageSize = devPage
	}
	if c.PageSize%devPage != 0 {
		return fmt.Errorf("sqlmini: page size %d not a device page multiple", c.PageSize)
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = int64(c.PageSize) * 256
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 256
	}
	if c.StagePages == 0 {
		c.StagePages = 64
	}
	return nil
}

const metaMagic = 0x53514C4D // "SQLM"

// Stats counts commit activity.
type Stats struct {
	Commits        int64
	PagesJournaled int64 // before-images (rollback mode)
	PagesToWAL     int64 // after-images (WAL mode)
	PagesToHome    int64 // in-place page writes
	PagesStaged    int64 // share-mode staged writes
	SharePairs     int64
	Checkpoints    int64
	RolledBack     int64 // pages restored by journal rollback at open
	WALRecovered   int64 // pages replayed from the WAL at open
}

// DB is one database handle.
type DB struct {
	fs   *fsim.FS
	file *fsim.File
	jrnl *fsim.File // rollback journal ("-journal")
	wal  *fsim.File // write-ahead log ("-wal")
	stg  *fsim.File // share-mode staging area ("-stage")
	pool *bufpool.Pool
	cfg  Config

	root uint32
	hwm  uint32

	inTxn bool // single writer: guards against a nested Update

	walMap   map[uint32][]byte // newest WAL image per page (read overlay)
	walPages int               // images in the WAL since last checkpoint
	walSeq   uint64

	st Stats
}

// Tx is one read-write transaction (single writer, like SQLite).
type Tx struct {
	db   *DB
	t    *sim.Task
	tree *btree.Tree
}

// Open creates or recovers a database.
func Open(t *sim.Task, fs *fsim.FS, cfg Config) (*DB, error) {
	if err := cfg.setDefaults(fs.Device().PageSize()); err != nil {
		return nil, err
	}
	db := &DB{fs: fs, cfg: cfg, walMap: make(map[uint32][]byte)}
	fresh := !fs.Exists(cfg.Name)
	var err error
	open := func(name string) (*fsim.File, error) {
		if fs.Exists(name) {
			return fs.Open(t, name)
		}
		return fs.Create(t, name)
	}
	if db.file, err = open(cfg.Name); err != nil {
		return nil, err
	}
	switch cfg.Mode {
	case Rollback:
		if db.jrnl, err = open(cfg.Name + "-journal"); err != nil {
			return nil, err
		}
	case WAL:
		if db.wal, err = open(cfg.Name + "-wal"); err != nil {
			return nil, err
		}
	case Share:
		if db.stg, err = open(cfg.Name + "-stage"); err != nil {
			return nil, err
		}
		if err = db.stg.Allocate(t, 0, int64(cfg.StagePages)*int64(cfg.PageSize)); err != nil {
			return nil, err
		}
	}
	pool, err := bufpool.New(db.file, cfg.PageSize, int(cfg.CacheBytes/int64(cfg.PageSize)), &homeFlusher{db: db})
	if err != nil {
		return nil, err
	}
	pool.MissOverlay = func(pageNo uint32) []byte {
		if db.cfg.Mode == WAL {
			return db.walMap[pageNo]
		}
		return nil
	}
	db.pool = pool

	if fresh {
		if err := db.initMeta(t); err != nil {
			return nil, err
		}
		if err := db.commitPages(t); err != nil { // make page 0 + root durable
			return nil, err
		}
	} else {
		if err := db.recoverMode(t); err != nil {
			return nil, err
		}
		if err := db.loadMeta(t); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// homeFlusher writes pages in place; only the commit/checkpoint paths use
// it, each already holding whatever durability protocol applies.
type homeFlusher struct{ db *DB }

func (h *homeFlusher) FlushBatch(t *sim.Task, pages []bufpool.PageImage) error {
	ps := int64(h.db.cfg.PageSize)
	for _, pg := range pages {
		btree.SetPageNo(pg.Data, pg.PageNo)
		btree.SetChecksum(pg.Data)
		if _, err := h.db.file.WriteAt(t, pg.Data, ps*int64(pg.PageNo)); err != nil {
			return err
		}
		h.db.st.PagesToHome++
	}
	return nil
}

func (db *DB) initMeta(t *sim.Task) error {
	db.hwm = 2
	db.root = 1
	f, err := db.pool.Get(t, 0)
	if err != nil {
		return err
	}
	db.renderMeta(f.Data)
	f.MarkDirty()
	f.Release()
	r, err := db.pool.Get(t, 1)
	if err != nil {
		return err
	}
	btree.InitPage(r.Data)
	r.MarkDirty()
	r.Release()
	return nil
}

// meta layout after the common header: 12 u32 magic, 16 u32 root,
// 20 u16 (unused), 26.. reserved (22..26 = flush-time page number).
func (db *DB) renderMeta(d []byte) {
	for i := 12; i < len(d); i++ {
		d[i] = 0
	}
	binary.LittleEndian.PutUint32(d[12:], metaMagic)
	binary.LittleEndian.PutUint32(d[16:], db.root)
	binary.LittleEndian.PutUint32(d[26:], db.hwm)
}

func (db *DB) loadMeta(t *sim.Task) error {
	f, err := db.pool.Get(t, 0)
	if err != nil {
		return err
	}
	defer f.Release()
	if binary.LittleEndian.Uint32(f.Data[12:]) != metaMagic {
		return fmt.Errorf("sqlmini: bad meta page")
	}
	db.root = binary.LittleEndian.Uint32(f.Data[16:])
	db.hwm = binary.LittleEndian.Uint32(f.Data[26:])
	return nil
}

// pager adapts DB to btree.Pager.
type pager struct {
	db *DB
}

func (p *pager) Get(t *sim.Task, pageNo uint32) (*bufpool.Frame, error) {
	return p.db.pool.Get(t, pageNo)
}

func (p *pager) Alloc(t *sim.Task) (uint32, error) {
	n := p.db.hwm
	p.db.hwm++
	// The meta page changes with the allocation; fold it into the txn.
	f, err := p.db.pool.Get(t, 0)
	if err != nil {
		return 0, err
	}
	p.db.renderMeta(f.Data)
	f.MarkDirty()
	f.Release()
	return n, nil
}

func (p *pager) Free(t *sim.Task, pageNo uint32) error { return nil }
func (p *pager) PageSize() int                         { return p.db.cfg.PageSize }

// Update runs fn inside a read-write transaction and commits it durably
// according to the configured mode. If fn returns an error the
// transaction is discarded (in-memory pages are dropped and re-read).
func (db *DB) Update(t *sim.Task, fn func(tx *Tx) error) error {
	if db.inTxn {
		return fmt.Errorf("sqlmini: nested transaction")
	}
	db.inTxn = true
	defer func() { db.inTxn = false }()
	// Mid-transaction pages must not reach the file before the commit
	// protocol says so (no-steal): the pool collects and holds them.
	db.pool.BeginCollect()
	rootBefore := db.root
	hwmBefore := db.hwm
	tree := btree.Open(&pager{db: db}, db.root, func(newRoot uint32) {
		db.root = newRoot
	})
	tx := &Tx{db: db, t: t, tree: tree}
	if err := fn(tx); err != nil {
		// Abort: throw away every cached page the txn touched. In WAL mode
		// dropped frames whose truth lives in the log re-load via the overlay.
		db.pool.EndCollect()
		db.pool.Drop()
		db.root = rootBefore
		db.hwm = hwmBefore
		return err
	}
	// Root/hwm may have moved: refresh the meta page inside the txn.
	f, err := db.pool.Get(t, 0)
	if err != nil {
		db.pool.EndCollect()
		return err
	}
	db.renderMeta(f.Data)
	f.MarkDirty()
	f.Release()
	// The commit protocol may evict while it works; keep the dirty set
	// pinned until it is done.
	pages := db.pool.EndCollect()
	db.pool.Protect(pages)
	defer db.pool.Unprotect(pages)
	return db.commit(t, pages)
}

// Get reads a key outside any transaction.
func (db *DB) Get(t *sim.Task, key []byte) ([]byte, bool, error) {
	tree := btree.Open(&pager{db: db}, db.root, nil)
	return tree.Get(t, key)
}

// Put stores key/value inside the transaction.
func (tx *Tx) Put(key, value []byte) error { return tx.tree.Put(tx.t, key, value) }

// Delete removes a key inside the transaction.
func (tx *Tx) Delete(key []byte) (bool, error) { return tx.tree.Delete(tx.t, key) }

// Get reads a key inside the transaction.
func (tx *Tx) Get(key []byte) ([]byte, bool, error) { return tx.tree.Get(tx.t, key) }

// Scan iterates [start, end) inside the transaction.
func (tx *Tx) Scan(start, end []byte, fn func(k, v []byte) bool) error {
	return tx.tree.Scan(tx.t, start, end, fn)
}

// Stats returns commit counters.
func (db *DB) Stats() Stats { return db.st }

// Root returns the current tree root (for tests).
func (db *DB) Root() uint32 { return db.root }

// btreeOpen returns a tree handle bound to the current root; exported to
// the package tests, which drive partial commit protocols by hand.
func btreeOpen(db *DB) *btree.Tree {
	return btree.Open(&pager{db: db}, db.root, func(newRoot uint32) { db.root = newRoot })
}

// stamp sets page number and checksum on a raw page (test helper).
func stamp(p []byte, pageNo uint32) {
	btree.SetPageNo(p, pageNo)
	btree.SetChecksum(p)
}
