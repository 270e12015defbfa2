package innodb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"share/internal/btree"
	"share/internal/bufpool"
	"share/internal/extcache"
	"share/internal/sim"
	"share/internal/ssd"
)

const dwbMagic = 0x44574221 // "DWB!"

// flusher implements bufpool.Flusher with the engine's three pipelines.
type flusher struct{ e *Engine }

// FlushBatch writes one batch of dirty pages durably according to the
// configured mode. Every page image is stamped with its page number, the
// current LSN and a checksum before leaving the pool, so torn writes are
// detectable and the doublewrite restore can match images to homes.
func (fl *flusher) FlushBatch(t *sim.Task, pages []bufpool.PageImage) error {
	e := fl.e
	atomic.AddInt64(&e.st.FlushBatches, 1)
	lsn := uint64(e.log.LSN())
	for _, pg := range pages {
		btree.SetPageNo(pg.Data, pg.PageNo)
		btree.SetLSN(pg.Data, lsn)
		btree.SetChecksum(pg.Data)
	}
	// Write-back cache mode: the batch lands on the cache device instead
	// of the tablespace. The images are already redo-durable (no-steal),
	// so a cache that degrades mid-batch simply falls back to the regular
	// pipeline below — nothing is lost either way.
	if e.cache != nil && e.cfg.CacheWriteBack {
		if done, err := fl.cacheBatch(t, pages); done {
			return err
		}
	}
	var err error
	switch e.cfg.FlushMode {
	case DWBOff:
		err = fl.writeHome(t, pages, true)
	case DWBOn:
		if err = fl.writeDWB(t, pages); err == nil {
			err = fl.writeHome(t, pages, true)
		}
	case Share:
		// Write once into the DWB file's slots and remap the homes (§4.2):
		// a SHARE'd home is never written in place, so it needs no header.
		if err = e.file.StageShare(t, e.dwb, pages); err == nil {
			atomic.AddInt64(&e.st.PagesToDWB, int64(len(pages)))
			atomic.AddInt64(&e.st.SharePairs, int64(len(pages)))
		}
	case AtomicWrite:
		err = fl.atomicHome(t, pages)
	default:
		err = fmt.Errorf("innodb: unknown flush mode %d", e.cfg.FlushMode)
	}
	if err != nil {
		return err
	}
	// The tablespace copies just moved past whatever the cache holds.
	if e.cache != nil {
		for _, pg := range pages {
			e.cache.Invalidate(t, pg.PageNo)
		}
	}
	return nil
}

// cacheBatch routes one flush batch into the write-back cache. It returns
// done=false when the batch should instead take the regular pipeline: the
// cache is degraded, or it is saturated with dirty entries and a
// writeback attempt could not drain it.
func (fl *flusher) cacheBatch(t *sim.Task, pages []bufpool.PageImage) (done bool, err error) {
	e := fl.e
	for _, pg := range pages {
		perr := e.cache.PutDirty(t, pg.PageNo, pg.Data)
		if errors.Is(perr, extcache.ErrCacheFull) {
			// Drain dirty entries to their homes and retry this page once.
			if werr := e.cacheWriteback(t); werr == nil {
				perr = e.cache.PutDirty(t, pg.PageNo, pg.Data)
			}
		}
		if perr != nil {
			// Degraded (or still full): replay the whole batch through the
			// regular pipeline. Pages already absorbed stay cached as dirty —
			// writing the full batch home keeps them consistent, and the
			// Invalidate pass in FlushBatch drops their stale entries.
			return false, nil
		}
	}
	e.cache.SyncJournal(t)
	return true, nil
}

// cacheWriteback drains every dirty cache entry to its tablespace home
// and syncs the file — the write-back half of a checkpoint, also used to
// un-saturate the cache mid-run.
func (e *Engine) cacheWriteback(t *sim.Task) error {
	wrote := false
	err := e.cache.WritebackAll(t, func(t *sim.Task, pageNo uint32, data []byte) error {
		wrote = true
		return e.homeWrite(t, pageNo, data)
	})
	if err != nil {
		return err
	}
	if wrote {
		return e.file.Sync(t)
	}
	return nil
}

// homeWrite writes one engine page at its tablespace home with the same
// stream steering as writeHome.
func (e *Engine) homeWrite(t *sim.Task, pageNo uint32, data []byte) error {
	stream := e.file.Stream()
	if e.cfg.StreamHints && e.fs.Device().Streams() > 1 {
		if pageNo != 0 && btree.IsLeaf(data) {
			stream = streamHeap
		} else {
			stream = streamIndex
		}
	}
	if _, err := e.file.WriteAtStream(t, data, int64(e.cfg.PageSize)*int64(pageNo), stream); err != nil {
		return err
	}
	atomic.AddInt64(&e.st.PagesToHome, 1)
	return nil
}

// atomicHome writes the batch once at the home locations through the
// FTL's atomic multi-page write command. Engine pages span several device
// pages; each device-level command is atomic, and a torn engine page
// (split across two commands, or a command boundary at a crash) is
// repaired by redo replay — the commit record made the page images
// durable before the flush began.
func (fl *flusher) atomicHome(t *sim.Task, pages []bufpool.PageImage) error {
	e := fl.e
	ps := int64(e.cfg.PageSize)
	dev := e.fs.Device()
	unit := dev.PageSize()
	perEngine := e.cfg.PageSize / unit
	maxBatch := dev.MaxShareBatch() // atomic limit is the delta page, same as SHARE
	var batch []ssd.AtomicPage
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := dev.WriteAtomic(t, batch)
		batch = batch[:0]
		return err
	}
	for _, pg := range pages {
		exts, err := e.file.MapRange(ps*int64(pg.PageNo), ps)
		if err != nil {
			return err
		}
		i := 0
		for _, ext := range exts {
			for j := uint32(0); j < ext.Len; j++ {
				if len(batch)+1 > maxBatch {
					if err := flush(); err != nil {
						return err
					}
				}
				batch = append(batch, ssd.AtomicPage{
					LPN:  ext.Start + j,
					Data: pg.Data[i*unit : (i+1)*unit],
				})
				i++
			}
		}
		if i != perEngine {
			return fmt.Errorf("innodb: engine page %d maps to %d device pages, want %d",
				pg.PageNo, i, perEngine)
		}
		atomic.AddInt64(&e.st.PagesToHome, 1)
	}
	return flush()
}

// writeDWB writes the batch sequentially into the doublewrite file —
// header page first, then one slot per image — and fsyncs it.
func (fl *flusher) writeDWB(t *sim.Task, pages []bufpool.PageImage) error {
	e := fl.e
	ps := int64(e.cfg.PageSize)
	hdr := make([]byte, e.cfg.PageSize)
	e.dwbSeq++
	binary.LittleEndian.PutUint32(hdr[4:], dwbMagic)
	binary.LittleEndian.PutUint64(hdr[8:], e.dwbSeq)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(pages)))
	off := 20
	for _, pg := range pages {
		binary.LittleEndian.PutUint32(hdr[off:], pg.PageNo)
		off += 4
	}
	binary.LittleEndian.PutUint32(hdr[0:], checksum32(hdr[4:]))
	if _, err := e.dwb.WriteAt(t, hdr, 0); err != nil {
		return err
	}
	for i, pg := range pages {
		if _, err := e.dwb.WriteAt(t, pg.Data, ps*int64(1+i)); err != nil {
			return err
		}
		atomic.AddInt64(&e.st.PagesToDWB, 1)
	}
	return e.dwb.Sync(t)
}

// writeHome writes each image at its home location in the tablespace.
// With stream hints on, each page is steered by what it holds: leaf pages
// to the heap stream, interior/meta pages to the index stream — B+tree
// interior pages are rewritten far more often than leaves, so segregating
// them keeps mostly-cold leaf blocks out of GC's way.
func (fl *flusher) writeHome(t *sim.Task, pages []bufpool.PageImage, sync bool) error {
	e := fl.e
	ps := int64(e.cfg.PageSize)
	hinted := e.cfg.StreamHints && e.fs.Device().Streams() > 1
	for _, pg := range pages {
		stream := e.file.Stream()
		if hinted {
			if pg.PageNo != 0 && btree.IsLeaf(pg.Data) {
				stream = streamHeap
			} else {
				stream = streamIndex
			}
		}
		if _, err := e.file.WriteAtStream(t, pg.Data, ps*int64(pg.PageNo), stream); err != nil {
			return err
		}
		atomic.AddInt64(&e.st.PagesToHome, 1)
	}
	if sync {
		return e.file.Sync(t)
	}
	return nil
}

func checksum32(b []byte) uint32 {
	var h uint32 = 2166136261
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}
