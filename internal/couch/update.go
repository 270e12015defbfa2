package couch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"share/internal/fsim"
	"share/internal/sim"
)

const (
	docMagic  = 0x43444F43 // "CDOC"
	docHdrLen = 16         // checksum u32, magic u32, klen u16, pad u16, vlen u32
)

// docPages returns the page-aligned allocation for a document.
func (s *Store) docPages(klen, vlen int) uint16 {
	n := (docHdrLen + klen + vlen + s.page - 1) / s.page
	if n == 0 {
		n = 1
	}
	return uint16(n)
}

// writeDoc appends one document at the current end of file and returns
// its reference.
func (s *Store) writeDoc(t *sim.Task, key, value []byte) (docRef, error) {
	pages := s.docPages(len(key), len(value))
	buf := make([]byte, int(pages)*s.page)
	binary.LittleEndian.PutUint32(buf[4:], docMagic)
	binary.LittleEndian.PutUint16(buf[8:], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(value)))
	copy(buf[docHdrLen:], key)
	copy(buf[docHdrLen+len(key):], value)
	binary.LittleEndian.PutUint32(buf[0:], checksum32(buf[4:]))
	ref := docRef{off: s.eof, pages: pages, vlen: uint32(len(value))}
	if _, err := s.file.WriteAt(t, buf, s.eof); err != nil {
		return docRef{}, err
	}
	s.eof += int64(len(buf))
	atomic.AddInt64(&s.st.DocPagesWritten, int64(pages))
	return ref, nil
}

// readDoc fetches and validates the document an index entry refers to.
// Inside an open SHARE-mode batch the index still points at the old
// location of a document set again — commit remaps it — so the read follows
// the newest deferred remap to the appended copy: Get and Scan see the
// batch's own writes in both modes. A batch is at most BatchSize entries;
// walking it needs no second index.
func (s *Store) readDoc(t *sim.Task, ref docRef, wantKey []byte) ([]byte, error) {
	for i := len(s.shares) - 1; i >= 0; i-- {
		if s.shares[i].oldOff == ref.off {
			ref.off = s.shares[i].newOff
			break
		}
	}
	buf := make([]byte, int(ref.pages)*s.page)
	if _, err := s.file.ReadAt(t, buf, ref.off); err != nil {
		return nil, err
	}
	return decodeDoc(buf, ref.off, wantKey)
}

// decodeDoc validates a serialized document and returns its value. It
// touches no store state, so Snapshot readers share it without the latch.
func decodeDoc(buf []byte, off int64, wantKey []byte) ([]byte, error) {
	if binary.LittleEndian.Uint32(buf[0:]) != checksum32(buf[4:]) {
		return nil, fmt.Errorf("couch: doc checksum mismatch at %d", off)
	}
	if binary.LittleEndian.Uint32(buf[4:]) != docMagic {
		return nil, fmt.Errorf("couch: bad doc magic at %d", off)
	}
	klen := int(binary.LittleEndian.Uint16(buf[8:]))
	vlen := int(binary.LittleEndian.Uint32(buf[12:]))
	key := buf[docHdrLen : docHdrLen+klen]
	if wantKey != nil && !bytes.Equal(key, wantKey) {
		return nil, fmt.Errorf("couch: doc key mismatch at %d", off)
	}
	return buf[docHdrLen+klen : docHdrLen+klen+vlen], nil
}

// resolve returns the in-memory node for a child slot, loading it on
// demand and caching the pointer in the slot.
func (s *Store) resolve(t *sim.Task, c *child) (*node, error) {
	if c.mem != nil {
		return c.mem, nil
	}
	n, err := s.loadNode(t, c.off)
	if err != nil {
		return nil, err
	}
	c.mem = n
	return n, nil
}

// lookup descends to the leaf entry for key.
func (s *Store) lookup(t *sim.Task, key []byte) (docRef, bool, error) {
	n := s.root
	for !n.leaf {
		if len(n.kids) == 0 {
			return docRef{}, false, nil
		}
		c := &n.kids[n.findIdx(key)]
		child, err := s.resolve(t, c)
		if err != nil {
			return docRef{}, false, err
		}
		n = child
	}
	i, ok := n.exactIdx(key)
	if !ok {
		return docRef{}, false, nil
	}
	return n.refs[i], true, nil
}

// Get returns the current value of key, including one Set earlier in the
// still-open batch (see readDoc). It takes the store latch (the lookup resolves nodes
// into the shared caches); use Snapshot for committed-state reads that must
// not queue behind writers.
func (s *Store) Get(t *sim.Task, key []byte) ([]byte, bool, error) {
	s.mu.Lock(t)
	defer s.mu.Unlock(t)
	atomic.AddInt64(&s.st.Gets, 1)
	if v, ok := s.docCache[string(key)]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, true, nil
	}
	ref, ok, err := s.lookup(t, key)
	if err != nil || !ok {
		return nil, false, err
	}
	v, err := s.readDoc(t, ref, key)
	if err != nil {
		return nil, false, err
	}
	s.cacheDoc(key, v)
	return v, true, nil
}

func (s *Store) cacheDoc(key, v []byte) {
	if s.cfg.DocCacheEntries <= 0 {
		return
	}
	ks := string(key)
	if _, ok := s.docCache[ks]; !ok {
		s.docOrder = append(s.docOrder, ks)
		for len(s.docOrder) > s.cfg.DocCacheEntries {
			old := s.docOrder[0]
			s.docOrder = s.docOrder[1:]
			delete(s.docCache, old)
		}
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	s.docCache[ks] = cp
}

// Set inserts or updates a document. The write is durable once the batch
// it belongs to commits (every Config.BatchSize sets, or at an explicit
// Commit call). After the device degrades to read-only, Set fails fast
// with ErrReadOnly.
func (s *Store) Set(t *sim.Task, key, value []byte) error {
	s.mu.Lock(t)
	defer s.mu.Unlock(t)
	if s.Degraded() {
		return ErrReadOnly
	}
	return s.Note(s.set(t, key, value))
}

func (s *Store) set(t *sim.Task, key, value []byte) error {
	atomic.AddInt64(&s.st.Sets, 1)
	old, found, err := s.lookup(t, key)
	if err != nil {
		return err
	}
	newPages := s.docPages(len(key), len(value))

	if s.cfg.ShareMode && found && old.pages == newPages {
		// SHARE commit path: append the new version once and defer a
		// remap of the old location onto it; the index is not touched, so
		// no wandering-tree writes happen at all.
		ref, err := s.writeDoc(t, key, value)
		if err != nil {
			return err
		}
		s.shares = append(s.shares, sharePending{oldOff: old.off, newOff: ref.off, pages: ref.pages})
	} else {
		// Original couchstore path: append the document and update the
		// index copy-on-write; the old version becomes stale.
		ref, err := s.writeDoc(t, key, value)
		if err != nil {
			return err
		}
		if err := s.treeInsert(t, key, ref); err != nil {
			return err
		}
		if found {
			s.stale += int64(old.pages) * int64(s.page)
		} else {
			s.docs++
		}
	}
	s.cacheDoc(key, value)
	s.pending++
	if s.pending >= s.cfg.BatchSize {
		return s.commitLocked(t)
	}
	return nil
}

// Delete removes a document (original path only; YCSB does not delete).
func (s *Store) Delete(t *sim.Task, key []byte) (bool, error) {
	s.mu.Lock(t)
	defer s.mu.Unlock(t)
	if s.Degraded() {
		return false, ErrReadOnly
	}
	found, err := s.del(t, key)
	return found, s.Note(err)
}

func (s *Store) del(t *sim.Task, key []byte) (bool, error) {
	old, found, err := s.lookup(t, key)
	if err != nil || !found {
		return false, err
	}
	if err := s.treeDelete(t, key); err != nil {
		return false, err
	}
	s.stale += int64(old.pages) * int64(s.page)
	s.docs--
	delete(s.docCache, string(key))
	s.pending++
	if s.pending >= s.cfg.BatchSize {
		return true, s.commitLocked(t)
	}
	return true, nil
}

// Commit makes the current batch durable: an fsync covers the appended
// documents, then (SHARE mode) the deferred remaps are issued — each
// SHARE command is durable on return — and the redundant tail copies are
// trimmed; (original mode, or when the index changed) the dirty index
// nodes wander to the tail and a new header is written under a second
// fsync-covered write sequence.
func (s *Store) Commit(t *sim.Task) error {
	s.mu.Lock(t)
	defer s.mu.Unlock(t)
	return s.commitLocked(t)
}

// commitLocked is Commit with the store latch already held.
func (s *Store) commitLocked(t *sim.Task) error {
	if s.pending == 0 && len(s.shares) == 0 && !s.root.dirty {
		return nil
	}
	if s.Degraded() {
		return ErrReadOnly
	}
	return s.Note(s.commit(t))
}

func (s *Store) commit(t *sim.Task) error {
	if err := s.file.Sync(t); err != nil {
		return err
	}
	if len(s.shares) > 0 {
		if err := s.applyShares(t); err != nil {
			return err
		}
	}
	if s.root.dirty {
		if err := s.writeHeader(t); err != nil {
			return err
		}
		if err := s.file.Sync(t); err != nil {
			return err
		}
	}
	s.pending = 0
	atomic.AddInt64(&s.st.Commits, 1)
	return nil
}

// applyShares issues the batch's remaps and trims the tail copies.
func (s *Store) applyShares(t *sim.Task) error {
	segs := make([]fsim.ShareSeg, len(s.shares))
	for i, sh := range s.shares {
		segs[i] = fsim.ShareSeg{Dst: s.file, DstOff: sh.oldOff, Src: s.file, SrcOff: sh.newOff, Len: int64(sh.pages) * int64(s.page)}
	}
	atomic.AddInt64(&s.st.SharePairs, int64(len(segs)))
	if err := s.fs.ShareVec(t, segs); err != nil {
		return err
	}
	// The tail copies are now redundant: the old locations carry the new
	// content. Trim them so the device reclaims the space; the file-level
	// bytes stay accounted as stale until compaction shrinks the file.
	dev := s.fs.Device()
	for _, sg := range segs {
		exts, err := s.file.MapRange(sg.SrcOff, sg.Len)
		if err != nil {
			return err
		}
		for _, e := range exts {
			if err := dev.Trim(t, e.Start, int(e.Len)); err != nil {
				return err
			}
		}
		s.stale += sg.Len
	}
	s.shares = s.shares[:0]
	return nil
}

// treeInsert adds key -> ref to the working tree, splitting as needed.
func (s *Store) treeInsert(t *sim.Task, key []byte, ref docRef) error {
	sp, err := s.insertAt(t, s.root, key, ref)
	if err != nil {
		return err
	}
	if sp != nil {
		old := s.root
		root := newInner()
		root.innerInsertChild(0, old.keys[0], child{mem: old})
		root.innerInsertChild(1, sp.keys[0], child{mem: sp})
		s.root = root
	}
	return nil
}

// overfull reports whether a node must split.
func (s *Store) overfull(n *node) bool {
	if n.size > s.cfg.NodeSize {
		return true
	}
	return s.cfg.MaxFanout > 0 && len(n.keys) > s.cfg.MaxFanout
}

func (s *Store) insertAt(t *sim.Task, n *node, key []byte, ref docRef) (*node, error) {
	if n.leaf {
		n.leafInsert(key, ref)
		if s.overfull(n) {
			return n.split(), nil
		}
		return nil, nil
	}
	if len(n.kids) == 0 {
		return nil, fmt.Errorf("couch: internal node with no children")
	}
	i := n.findIdx(key)
	childNode, err := s.resolve(t, &n.kids[i])
	if err != nil {
		return nil, err
	}
	sp, err := s.insertAt(t, childNode, key, ref)
	if err != nil {
		return nil, err
	}
	// The child was (potentially) rewritten: this node must wander too.
	n.dirty = true
	if bytes.Compare(key, n.keys[i]) < 0 {
		n.keys[i] = append([]byte(nil), key...) // maintain first-key label
	}
	if sp != nil {
		n.innerInsertChild(i+1, sp.keys[0], child{mem: sp})
		if s.overfull(n) {
			return n.split(), nil
		}
	}
	return nil, nil
}

// treeDelete removes key from the working tree.
func (s *Store) treeDelete(t *sim.Task, key []byte) error {
	n := s.root
	var path []*node
	for !n.leaf {
		if len(n.kids) == 0 {
			return nil
		}
		path = append(path, n)
		c, err := s.resolve(t, &n.kids[n.findIdx(key)])
		if err != nil {
			return err
		}
		n = c
	}
	if n.leafDelete(key) {
		for _, p := range path {
			p.dirty = true
		}
	}
	return nil
}

// walkDocs iterates live documents in key order (used by compaction).
func (s *Store) walkDocs(t *sim.Task, fn func(key []byte, ref docRef) error) error {
	return s.walkNode(t, s.root, fn)
}

func (s *Store) walkNode(t *sim.Task, n *node, fn func(key []byte, ref docRef) error) error {
	if n.leaf {
		for i, k := range n.keys {
			if err := fn(k, n.refs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range n.kids {
		c, err := s.resolve(t, &n.kids[i])
		if err != nil {
			return err
		}
		if err := s.walkNode(t, c, fn); err != nil {
			return err
		}
	}
	return nil
}

// Scan iterates live documents with keys in [start, end) in key order,
// loading each document's value; fn returning false stops the scan. A nil
// end scans to the end of the index. Used by YCSB workload E. It holds
// the store latch for the whole scan; use Snapshot.Scan for long scans
// that must not block writers.
func (s *Store) Scan(t *sim.Task, start, end []byte, fn func(key, value []byte) bool) error {
	s.mu.Lock(t)
	defer s.mu.Unlock(t)
	stop := fmt.Errorf("couch: scan stopped") // sentinel
	err := s.scanNode(t, s.root, start, end, fn, stop)
	if err == stop {
		return nil
	}
	return err
}

func (s *Store) scanNode(t *sim.Task, n *node, start, end []byte, fn func(k, v []byte) bool, stop error) error {
	if n.leaf {
		i := 0
		if len(start) > 0 {
			i, _ = n.exactIdx(start)
			// exactIdx returns the covering slot; advance past smaller keys.
			for i < len(n.keys) && bytes.Compare(n.keys[i], start) < 0 {
				i++
			}
		}
		for ; i < len(n.keys); i++ {
			if end != nil && bytes.Compare(n.keys[i], end) >= 0 {
				return stop
			}
			v, err := s.readDoc(t, n.refs[i], n.keys[i])
			if err != nil {
				return err
			}
			if !fn(n.keys[i], v) {
				return stop
			}
		}
		return nil
	}
	i := 0
	if len(start) > 0 {
		i = n.findIdx(start)
	}
	for ; i < len(n.kids); i++ {
		if end != nil && i > 0 && bytes.Compare(n.keys[i], end) >= 0 {
			return stop
		}
		c, err := s.resolve(t, &n.kids[i])
		if err != nil {
			return err
		}
		if err := s.scanNode(t, c, start, end, fn, stop); err != nil {
			return err
		}
		start = nil // later subtrees scan from their beginning
	}
	return nil
}
