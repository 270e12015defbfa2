// Package couch implements a miniature Couchbase/couchstore storage
// engine: an append-only database file holding page-aligned documents and
// a copy-on-write (wandering) B+tree index, with batched commits and a
// stale-ratio-triggered compaction — plus the paper's two SHARE
// integrations:
//
//   - SHARE commit (§4.3): an updated document is appended once and the
//     document's *old* location is remapped onto the new copy, so no index
//     node is rewritten and the wandering-tree write amplification
//     disappears; the appended tail is then reclaimed.
//   - SHARE compaction (§3.3): the new database file is fallocated and
//     every live document is transferred by remapping instead of copying;
//     only the new index nodes are actually written.
package couch

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"share/internal/fsim"
	"share/internal/ftl"
	"share/internal/sim"
)

// ErrReadOnly is returned by mutating operations after the underlying
// device degraded to read-only (spare blocks exhausted). Get and Scan
// keep serving from the still-readable file and the caches.
var ErrReadOnly = fmt.Errorf("couch: store is read-only: %w", ftl.ErrReadOnly)

// Config tunes the store.
type Config struct {
	Name      string // database file name
	NodeSize  int    // index node size in bytes (device page multiple)
	ShareMode bool   // use SHARE for commits and compaction
	// BatchSize is the number of Set operations per fsync (the paper's
	// batch-size knob, swept 1..256 in Figures 7 and 8).
	BatchSize int
	// CompactThreshold triggers compaction when stale bytes exceed this
	// fraction of the file.
	CompactThreshold float64
	// DocCacheEntries bounds the in-memory document cache (Couchbase's
	// object cache); 0 disables caching.
	DocCacheEntries int
	// MaxFanout, when > 0, caps the entries per index node below what the
	// node size allows. Scaled-down experiments use it to keep the tree
	// depth equal to the paper's (three levels for 250k documents), so the
	// wandering-tree write amplification per update is preserved.
	MaxFanout int
	// StreamHints tags device writes with per-object stream hints on
	// multi-stream devices: ordinary append-log traffic (documents, index
	// nodes, headers) takes stream 0 and compaction output stream 1, so the
	// long-lived compacted data stops sharing erase blocks with the churning
	// append tail. No effect when the device is single-stream.
	StreamHints bool
}

func (c *Config) setDefaults(devPage int) error {
	if c.Name == "" {
		c.Name = "db.couch"
	}
	if c.NodeSize == 0 {
		c.NodeSize = devPage
	}
	if c.NodeSize%devPage != 0 {
		return fmt.Errorf("couch: node size %d not a multiple of device page %d", c.NodeSize, devPage)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	if c.CompactThreshold == 0 {
		c.CompactThreshold = 0.6
	}
	return nil
}

// Stats counts store activity.
type Stats struct {
	Sets             int64
	Gets             int64
	Commits          int64 // fsync batches
	DocPagesWritten  int64
	NodePagesWritten int64
	HeaderPages      int64
	SharePairs       int64 // document versions installed by remapping
	Compactions      int64

	ReadOnlyTransitions int64 // device degradations observed (0 or 1)
	Degraded            bool  // gauge: store is serving read-only
}

// Store is one Couchbase-style database.
//
// Concurrency: a store latch (s.mu) serializes every mutating operation
// and the cache-touching read paths (Get, Scan, Height resolve nodes into
// shared caches). Point-in-time readers that must not queue behind
// writers use Snapshot, which walks the last committed tree root through
// a private node cache and touches no shared mutable state. The
// unlatched accessors FileSize, StaleRatio, NeedsCompaction and DocCount
// are quiescent-only: call them while no writer is active.
type Store struct {
	fs   *fsim.FS
	file *fsim.File
	cfg  Config
	page int // device page size

	mu sim.Mutex // store latch: tree, caches, file append point

	root    *node
	eof     int64 // append point
	stale   int64 // bytes occupied by stale document/node versions
	docs    int64 // live document count
	hdrSeq  uint64
	pending int // Sets since the last commit

	// SHARE-mode deferred remaps of the current batch: old location <-
	// new tail location.
	shares []sharePending

	nodeCache map[int64]*node
	docCache  map[string][]byte
	docOrder  []string // FIFO eviction for the doc cache

	// committedRoot is the index root offset written by the last header —
	// the point-in-time tree Snapshot readers traverse. -1 until the first
	// header commits a non-empty tree.
	committedRoot int64
	// compactEpoch counts completed compactions; snapshots record it and
	// refuse to read after the file they reference has been swapped away.
	compactEpoch atomic.Int64

	// Latched when a device write fails with ftl.ErrReadOnly; mutating
	// operations then fail fast with ErrReadOnly while reads keep serving.
	ftl.ReadOnlyLatch

	st Stats // counters updated via atomics; read with Stats()
}

type sharePending struct {
	oldOff, newOff int64
	pages          uint16
}

// Open creates or reopens a store. Reopening scans backward for the last
// committed header, recovering from a crash (uncommitted tail data is
// truncated away).
func Open(t *sim.Task, fs *fsim.FS, cfg Config) (*Store, error) {
	if err := cfg.setDefaults(fs.Device().PageSize()); err != nil {
		return nil, err
	}
	s := &Store{
		fs:            fs,
		cfg:           cfg,
		page:          fs.Device().PageSize(),
		nodeCache:     make(map[int64]*node),
		docCache:      make(map[string][]byte),
		committedRoot: -1,
		ReadOnlyLatch: ftl.NewReadOnlyLatch(ErrReadOnly),
	}
	if fs.Exists(cfg.Name) {
		f, err := fs.Open(t, cfg.Name)
		if err != nil {
			return nil, err
		}
		s.file = f
		if err := s.recover(t); err != nil {
			return nil, err
		}
	} else {
		f, err := fs.Create(t, cfg.Name)
		if err != nil {
			return nil, err
		}
		s.file = f
		s.root = newLeaf()
		if err := s.writeHeader(t); err != nil {
			return nil, err
		}
		if err := s.file.Sync(t); err != nil {
			return nil, err
		}
	}
	if cfg.StreamHints && fs.Device().Streams() > 1 {
		s.file.SetStream(streamAppend)
	}
	return s, nil
}

// Stream layout when StreamHints is on (clamped by the device, so fewer
// configured streams degrade toward sharing).
const (
	streamAppend  = 0 // append log: documents, wandering-tree nodes, headers
	streamCompact = 1 // compaction output: live data, cold after the swap
)

// header layout: u32 checksum, u32 magic, u64 seq, i64 rootOff,
// i64 stale, i64 docs. Headers are NodeSize-aligned blocks at the file
// tail after every commit, as couchstore writes them.
func (s *Store) writeHeader(t *sim.Task) error {
	// Serialize any dirty index nodes first so the header's root offset
	// refers to durable nodes.
	rootOff, err := s.flushNodes(t, s.root)
	if err != nil {
		return err
	}
	buf := make([]byte, s.cfg.NodeSize)
	binary.LittleEndian.PutUint32(buf[4:], headerMagic)
	s.hdrSeq++
	binary.LittleEndian.PutUint64(buf[8:], s.hdrSeq)
	binary.LittleEndian.PutUint64(buf[16:], uint64(rootOff))
	binary.LittleEndian.PutUint64(buf[24:], uint64(s.stale))
	binary.LittleEndian.PutUint64(buf[32:], uint64(s.docs))
	binary.LittleEndian.PutUint32(buf[0:], checksum32(buf[4:]))
	if _, err := s.file.WriteAt(t, buf, s.eof); err != nil {
		return err
	}
	s.eof += int64(s.cfg.NodeSize)
	atomic.AddInt64(&s.st.HeaderPages, int64(s.cfg.NodeSize/s.page))
	s.committedRoot = rootOff
	return nil
}

// flushNodes serializes the dirty subtree bottom-up at the file tail and
// returns the root's file offset. Clean subtrees are left untouched —
// this is exactly the wandering-tree write pattern: one dirty leaf forces
// a new copy of every node up to the root.
func (s *Store) flushNodes(t *sim.Task, n *node) (int64, error) {
	if !n.dirty && n.off >= 0 {
		return n.off, nil
	}
	var childOffs []int64
	if !n.leaf {
		childOffs = make([]int64, len(n.kids))
		for i := range n.kids {
			if n.kids[i].mem != nil {
				off, err := s.flushNodes(t, n.kids[i].mem)
				if err != nil {
					return 0, err
				}
				childOffs[i] = off
				// Keep the in-memory child but record its clean offset.
				n.kids[i].off = off
			} else {
				childOffs[i] = n.kids[i].off
			}
		}
	}
	buf := s.serializeNode(n, childOffs)
	off := s.eof
	if _, err := s.file.WriteAt(t, buf, off); err != nil {
		return 0, err
	}
	s.eof += int64(s.cfg.NodeSize)
	atomic.AddInt64(&s.st.NodePagesWritten, int64(s.cfg.NodeSize/s.page))
	// The previous version of this node is now stale.
	if n.off >= 0 {
		s.stale += int64(s.cfg.NodeSize)
		delete(s.nodeCache, n.off)
	}
	n.off = off
	n.dirty = false
	s.nodeCache[off] = n
	return off, nil
}

// recover finds the newest committed header by scanning backward from the
// end of the file, loads the root, and truncates uncommitted tail blocks.
func (s *Store) recover(t *sim.Task) error {
	size := s.file.Size()
	ns := int64(s.cfg.NodeSize)
	buf := make([]byte, s.cfg.NodeSize)
	for off := size - ns; off >= 0; off -= ns {
		if off%ns != 0 {
			off = off / ns * ns
		}
		if _, err := s.file.ReadAt(t, buf, off); err != nil {
			continue
		}
		if binary.LittleEndian.Uint32(buf[4:]) != headerMagic {
			continue
		}
		if binary.LittleEndian.Uint32(buf[0:]) != checksum32(buf[4:]) {
			continue
		}
		s.hdrSeq = binary.LittleEndian.Uint64(buf[8:])
		rootOff := int64(binary.LittleEndian.Uint64(buf[16:]))
		s.committedRoot = rootOff
		s.stale = int64(binary.LittleEndian.Uint64(buf[24:]))
		s.docs = int64(binary.LittleEndian.Uint64(buf[32:]))
		s.eof = off + ns
		if err := s.file.Truncate(t, s.eof); err != nil {
			return err
		}
		if rootOff >= 0 {
			root, err := s.loadNode(t, rootOff)
			if err != nil {
				return err
			}
			s.root = root
		} else {
			s.root = newLeaf()
		}
		return nil
	}
	return fmt.Errorf("couch: no committed header found in %s", s.cfg.Name)
}

// FileSize returns the current database file size in bytes.
func (s *Store) FileSize() int64 { return s.eof }

// StaleRatio returns the fraction of the file occupied by stale data.
func (s *Store) StaleRatio() float64 {
	if s.eof == 0 {
		return 0
	}
	return float64(s.stale) / float64(s.eof)
}

// NeedsCompaction reports whether the stale ratio exceeds the threshold.
func (s *Store) NeedsCompaction() bool {
	return s.StaleRatio() > s.cfg.CompactThreshold
}

// DocCount returns the number of live documents.
func (s *Store) DocCount() int64 { return s.docs }

// Stats returns a snapshot of store counters. Counters are maintained
// with atomics, so the snapshot is safe to take while sessions run.
func (s *Store) Stats() Stats {
	var st Stats
	st.Sets = atomic.LoadInt64(&s.st.Sets)
	st.Gets = atomic.LoadInt64(&s.st.Gets)
	st.Commits = atomic.LoadInt64(&s.st.Commits)
	st.DocPagesWritten = atomic.LoadInt64(&s.st.DocPagesWritten)
	st.NodePagesWritten = atomic.LoadInt64(&s.st.NodePagesWritten)
	st.HeaderPages = atomic.LoadInt64(&s.st.HeaderPages)
	st.SharePairs = atomic.LoadInt64(&s.st.SharePairs)
	st.Compactions = atomic.LoadInt64(&s.st.Compactions)
	st.ReadOnlyTransitions = s.ReadOnlyTransitions()
	st.Degraded = s.Degraded()
	return st
}

// FS returns the file system the store lives on.
func (s *Store) FS() *fsim.FS { return s.fs }

// BatchSize returns the current commit batch size.
func (s *Store) BatchSize() int { return s.cfg.BatchSize }

// SetBatchSize changes the commit batch size at run time. Bulk loaders use
// a large batch, then restore the benchmark's setting.
func (s *Store) SetBatchSize(n int) {
	if n < 1 {
		n = 1
	}
	s.cfg.BatchSize = n
}

// Height returns the index depth.
func (s *Store) Height(t *sim.Task) (int, error) {
	s.mu.Lock(t)
	defer s.mu.Unlock(t)
	h := 1
	n := s.root
	for !n.leaf {
		if len(n.kids) == 0 {
			break
		}
		c := n.kids[0]
		if c.mem != nil {
			n = c.mem
		} else {
			ld, err := s.loadNode(t, c.off)
			if err != nil {
				return 0, err
			}
			n = ld
		}
		h++
	}
	return h, nil
}
