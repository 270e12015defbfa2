package innodb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"share/internal/btree"
	"share/internal/ftl"
	"share/internal/sim"
)

// recover brings an existing tablespace to a consistent state after a
// crash (or reopens a clean one — the same path handles both):
//
//  1. doublewrite restore (DWB-On only): any home page torn by an
//     interrupted flush is rewritten from its checksum-valid copy in the
//     doublewrite buffer;
//  2. redo replay: page images of committed transactions are written to
//     their home locations in log order (incomplete trailing transactions
//     are discarded);
//  3. a checkpoint truncates the redo log and the table registry is
//     loaded from the (now consistent) meta page.
//
// The doublewrite restore runs only in DWB-On, the one mode that writes
// homes in place behind a doublewrite header; a SHARE'd home is remapped
// atomically, never written in place. Any other mode may find a
// checksum-valid batch from an earlier DWB-On epoch; "restoring" it over
// homes the current mode already flushed (or redo is about to roll
// forward) would resurrect old data, so those modes invalidate it instead,
// and a later switch back to DWB-On cannot trip over it.
func (e *Engine) recover(t *sim.Task) error {
	if e.cfg.FlushMode == DWBOn {
		if err := e.restoreFromDWB(t); err != nil {
			return err
		}
	} else if err := e.invalidateDWB(t); err != nil {
		return err
	}
	if err := e.replayRedo(t); err != nil {
		return err
	}
	if err := e.fs.SyncMeta(t); err != nil {
		return err
	}
	if err := e.log.Truncate(t); err != nil {
		return err
	}
	e.pool.Drop()
	return e.loadMeta(t)
}

// invalidateDWB zeroes the doublewrite header so stale state from an
// earlier epoch can never be mistaken for a valid batch. A device that has
// degraded to read-only refuses the write; that is fine — the current mode
// will not read the header either.
func (e *Engine) invalidateDWB(t *sim.Task) error {
	if e.dwb.Size() == 0 {
		return nil
	}
	hdr := make([]byte, e.cfg.PageSize)
	if _, err := e.dwb.ReadAt(t, hdr, 0); err != nil {
		return nil // unreadable header: nothing a restore could trust anyway
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != checksum32(hdr[4:]) ||
		binary.LittleEndian.Uint32(hdr[4:]) != dwbMagic {
		return nil // already invalid
	}
	zero := make([]byte, e.cfg.PageSize)
	if _, err := e.dwb.WriteAt(t, zero, 0); err != nil {
		if errors.Is(err, ftl.ErrReadOnly) {
			return nil
		}
		return err
	}
	return e.dwb.Sync(t)
}

// restoreFromDWB scans the doublewrite buffer and repairs torn home pages.
func (e *Engine) restoreFromDWB(t *sim.Task) error {
	ps := int64(e.cfg.PageSize)
	hdr := make([]byte, e.cfg.PageSize)
	if _, err := e.dwb.ReadAt(t, hdr, 0); err != nil {
		return nil // empty or unreadable DWB: nothing flushed yet
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != checksum32(hdr[4:]) {
		return nil // torn DWB header: the batch never completed its first write
	}
	if binary.LittleEndian.Uint32(hdr[4:]) != dwbMagic {
		return nil
	}
	count := int(binary.LittleEndian.Uint32(hdr[16:]))
	if count > e.cfg.DWBPages {
		return fmt.Errorf("innodb: DWB header count %d exceeds %d", count, e.cfg.DWBPages)
	}
	img := make([]byte, e.cfg.PageSize)
	home := make([]byte, e.cfg.PageSize)
	for i := 0; i < count; i++ {
		pageNo := binary.LittleEndian.Uint32(hdr[20+4*i:])
		if _, err := e.dwb.ReadAt(t, img, ps*int64(1+i)); err != nil {
			return err
		}
		if !btree.VerifyChecksum(img) || btree.PageNo(img) != pageNo {
			continue // torn copy inside the DWB itself: home was not touched
		}
		if _, err := e.file.ReadAt(t, home, ps*int64(pageNo)); err != nil {
			return err
		}
		if btree.VerifyChecksum(home) {
			continue // home intact; redo (if any) will roll it forward
		}
		if _, err := e.file.WriteAt(t, img, ps*int64(pageNo)); err != nil {
			return err
		}
		atomic.AddInt64(&e.st.TornRestored, 1)
	}
	return e.file.Sync(t)
}

// replayRedo applies committed page images from the redo log.
func (e *Engine) replayRedo(t *sim.Task) error {
	recs, err := e.log.ReadAll(t)
	if err != nil {
		return err
	}
	ps := int64(e.cfg.PageSize)
	var pending [][]byte // images of the transaction being scanned
	for _, rec := range recs {
		if len(rec) == 0 {
			continue
		}
		switch rec[0] {
		case recPageImage:
			if len(rec) != 5+e.cfg.PageSize {
				return fmt.Errorf("innodb: bad page-image record length %d", len(rec))
			}
			pending = append(pending, rec)
		case recCommit:
			for _, img := range pending {
				pageNo := binary.LittleEndian.Uint32(img[1:])
				if _, err := e.file.WriteAt(t, img[5:], ps*int64(pageNo)); err != nil {
					return err
				}
				atomic.AddInt64(&e.st.RedoApplied, 1)
			}
			pending = pending[:0]
		default:
			return fmt.Errorf("innodb: unknown redo record kind %d", rec[0])
		}
	}
	// pending now holds images of a transaction whose commit record never
	// became durable: discard them.
	return e.file.Sync(t)
}
