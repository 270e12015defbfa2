package couch

import (
	"sync/atomic"

	"share/internal/fsim"
	"share/internal/sim"
)

// CompactStats reports one compaction run.
type CompactStats struct {
	Elapsed      sim.Duration // virtual time spent
	DocsMoved    int64
	BytesWritten int64 // host bytes written to the device during compaction
	SharePairs   int64 // documents transferred by remapping (SHARE mode)
}

// Compact rewrites the database into a new file containing only live
// data, then atomically swaps it in.
//
// Original mode reads every live document and writes it into the new
// file, rebuilding the index — the heavy copy the paper measures in
// Table 2. SHARE mode fallocates the new file, reads only each document's
// header page (the length check §5.3.2 describes), transfers the document
// bodies by SHARE remapping, and writes just the new index nodes.
func (s *Store) Compact(t *sim.Task) (CompactStats, error) {
	s.mu.Lock(t)
	defer s.mu.Unlock(t)
	if s.Degraded() {
		return CompactStats{}, ErrReadOnly
	}
	cs, err := s.compact(t)
	return cs, s.Note(err)
}

func (s *Store) compact(t *sim.Task) (CompactStats, error) {
	var cs CompactStats
	// The open batch references current file offsets; make it durable
	// before the file is rewritten.
	if err := s.commitLocked(t); err != nil {
		return cs, err
	}
	start := t.Now()
	devBefore := s.fs.Device().Stats()

	tmpName := s.cfg.Name + ".compact"
	if s.fs.Exists(tmpName) {
		// A crashed compaction leaves a partial file; restart from scratch
		// (§4.3: "the partially compacted new file is deleted and the
		// whole compaction process restarts").
		if err := s.fs.Remove(t, tmpName); err != nil {
			return cs, err
		}
	}
	dst, err := s.fs.Create(t, tmpName)
	if err != nil {
		return cs, err
	}
	if s.cfg.StreamHints && s.fs.Device().Streams() > 1 {
		// Compaction output is live-only data that will sit cold until the
		// next compaction; keep it out of the append stream's blocks.
		dst.SetStream(streamCompact)
	}

	var entries []entryKV
	var dstEOF int64

	if s.cfg.ShareMode {
		// Pass 1: size the document area and fallocate it.
		var total int64
		if err := s.walkDocs(t, func(key []byte, ref docRef) error {
			total += int64(ref.pages) * int64(s.page)
			return nil
		}); err != nil {
			return cs, err
		}
		if total > 0 {
			if err := dst.Allocate(t, 0, total); err != nil {
				return cs, err
			}
		}
		// Pass 2: remap every live document into the new file. The header
		// page of each document is read from the old file to obtain the
		// length for the share command.
		hdr := make([]byte, s.page)
		var segs []fsim.ShareSeg
		if err := s.walkDocs(t, func(key []byte, ref docRef) error {
			if _, err := s.file.ReadAt(t, hdr, ref.off); err != nil {
				return err
			}
			bytes := int64(ref.pages) * int64(s.page)
			segs = append(segs, fsim.ShareSeg{Dst: dst, DstOff: dstEOF, Src: s.file, SrcOff: ref.off, Len: bytes})
			k := append([]byte(nil), key...)
			entries = append(entries, entryKV{key: k, ref: docRef{off: dstEOF, pages: ref.pages, vlen: ref.vlen}})
			dstEOF += bytes
			cs.DocsMoved++
			cs.SharePairs++
			return nil
		}); err != nil {
			return cs, err
		}
		if err := s.fs.ShareVec(t, segs); err != nil {
			return cs, err
		}
	} else {
		// Original couchstore compaction: physically copy every live doc.
		if err := s.walkDocs(t, func(key []byte, ref docRef) error {
			buf := make([]byte, int(ref.pages)*int(s.page))
			if _, err := s.file.ReadAt(t, buf, ref.off); err != nil {
				return err
			}
			if _, err := dst.WriteAt(t, buf, dstEOF); err != nil {
				return err
			}
			k := append([]byte(nil), key...)
			entries = append(entries, entryKV{key: k, ref: docRef{off: dstEOF, pages: ref.pages, vlen: ref.vlen}})
			dstEOF += int64(len(buf))
			cs.DocsMoved++
			return nil
		}); err != nil {
			return cs, err
		}
	}

	// Rebuild the index into the new file the way couchstore does: by
	// inserting every key into a fresh copy-on-write tree and flushing it
	// periodically. The wandering-tree appends make the index build cost
	// real I/O in both modes — in SHARE mode it is the only write traffic
	// compaction produces.
	old := s.file
	oldName := s.cfg.Name
	s.file = dst
	s.eof = dstEOF
	s.stale = 0
	s.root = newLeaf()
	s.nodeCache = make(map[int64]*node)
	for i, e := range entries {
		if err := s.treeInsert(t, e.key, e.ref); err != nil {
			return cs, err
		}
		if (i+1)%compactFlushEvery == 0 {
			if err := s.writeHeader(t); err != nil {
				return cs, err
			}
		}
	}
	if err := s.writeHeader(t); err != nil {
		return cs, err
	}
	if err := dst.Sync(t); err != nil {
		return cs, err
	}

	// Swap: drop the old file, move the new one into place.
	if err := s.fs.Remove(t, oldName); err != nil {
		return cs, err
	}
	if err := s.fs.Rename(t, tmpName, oldName); err != nil {
		return cs, err
	}
	if err := s.fs.SyncMeta(t); err != nil {
		return cs, err
	}
	_ = old
	if s.cfg.StreamHints && s.fs.Device().Streams() > 1 {
		// The new file is the append log now; fresh appends are hot again.
		s.file.SetStream(streamAppend)
	}
	atomic.AddInt64(&s.st.Compactions, 1)
	// Outstanding snapshots reference the removed file; fence them.
	s.compactEpoch.Add(1)

	devAfter := s.fs.Device().Stats()
	cs.BytesWritten = (devAfter.FTL.HostWrites - devBefore.FTL.HostWrites) * int64(s.page)
	cs.Elapsed = t.Now() - start
	return cs, nil
}

// entryKV is one live document carried through compaction.
type entryKV struct {
	key []byte
	ref docRef // reference in the new file
}

// compactFlushEvery is how many documents are indexed between header
// flushes while rebuilding the compaction index (couchstore's batched
// commit during compaction).
const compactFlushEvery = 1000
