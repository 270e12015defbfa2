package sqlmini

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"share/internal/btree"
	"share/internal/fsim"
	"share/internal/sim"
)

// Log-file group layout (journal and WAL share it): a header page
// [crc u32][magic u32][seq u64][count u32][pageNos ...] followed by count
// page images (each carrying its own btree checksum). A group is valid
// only if the header checksum and every image checksum verify.
const (
	groupMagic = 0x53514C47 // "SQLG"
)

func checksum32(b []byte) uint32 {
	var h uint32 = 2166136261
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// commit makes the finished transaction — its dirty pages, ascending —
// durable per the configured mode.
func (db *DB) commit(t *sim.Task, pages []uint32) error {
	if len(pages) == 0 {
		return nil
	}
	var err error
	switch db.cfg.Mode {
	case Rollback:
		err = db.commitRollback(t, pages)
	case WAL:
		err = db.commitWAL(t, pages)
	case Share:
		err = db.commitShare(t, pages)
	default:
		err = fmt.Errorf("sqlmini: unknown mode %d", db.cfg.Mode)
	}
	if err == nil {
		db.st.Commits++
	}
	return err
}

// writeGroup appends a header + images group at off in file f, reading
// image content through get. Returns the new end offset.
func (db *DB) writeGroup(t *sim.Task, f groupFile, off int64, pages []uint32,
	get func(pageNo uint32) ([]byte, error)) (int64, error) {
	ps := int64(db.cfg.PageSize)
	hdr := make([]byte, db.cfg.PageSize)
	binary.LittleEndian.PutUint32(hdr[4:], groupMagic)
	db.walSeq++
	binary.LittleEndian.PutUint64(hdr[8:], db.walSeq)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(pages)))
	for i, p := range pages {
		binary.LittleEndian.PutUint32(hdr[20+4*i:], p)
	}
	binary.LittleEndian.PutUint32(hdr[0:], checksum32(hdr[4:]))
	if _, err := f.WriteAt(t, hdr, off); err != nil {
		return 0, err
	}
	off += ps
	for _, p := range pages {
		img, err := get(p)
		if err != nil {
			return 0, err
		}
		if _, err := f.WriteAt(t, img, off); err != nil {
			return 0, err
		}
		off += ps
	}
	return off, nil
}

type groupFile interface {
	WriteAt(t *sim.Task, p []byte, off int64) (int, error)
	ReadAt(t *sim.Task, p []byte, off int64) (int, error)
	Size() int64
	Truncate(t *sim.Task, size int64) error
	Sync(t *sim.Task) error
}

// commitRollback: SQLite's classic three-sync protocol.
func (db *DB) commitRollback(t *sim.Task, pages []uint32) error {
	if len(pages)*4+20 > db.cfg.PageSize {
		return fmt.Errorf("sqlmini: transaction touches %d pages; header overflow", len(pages))
	}
	ps := int64(db.cfg.PageSize)
	// 1. Journal the before-images (read from the file — the cache holds
	//    the new content) and fsync.
	buf := make([]byte, db.cfg.PageSize)
	if _, err := db.writeGroup(t, db.jrnl, 0, pages, func(p uint32) ([]byte, error) {
		for i := range buf {
			buf[i] = 0
		}
		if ps*int64(p) < db.file.Size() {
			if _, err := db.file.ReadAt(t, buf, ps*int64(p)); err != nil && err != io.EOF {
				return nil, err
			}
		}
		// Stamp so the image self-validates even for fresh pages.
		btree.SetPageNo(buf, p)
		btree.SetChecksum(buf)
		return buf, nil
	}); err != nil {
		return err
	}
	db.st.PagesJournaled += int64(len(pages))
	if err := db.jrnl.Sync(t); err != nil {
		return err
	}
	// 2. Write the new pages in place and fsync.
	if err := db.pool.FlushAll(t); err != nil {
		return err
	}
	if err := db.file.Sync(t); err != nil {
		return err
	}
	// 3. Invalidate the journal (truncate) and fsync — the commit point.
	if err := db.jrnl.Truncate(t, 0); err != nil {
		return err
	}
	return db.jrnl.Sync(t)
}

// commitWAL: one group append + one fsync; home pages stay stale until a
// checkpoint.
func (db *DB) commitWAL(t *sim.Task, pages []uint32) error {
	if len(pages)*4+20 > db.cfg.PageSize {
		return fmt.Errorf("sqlmini: transaction touches %d pages; header overflow", len(pages))
	}
	end, err := db.writeGroup(t, db.wal, db.wal.Size(), pages, func(p uint32) ([]byte, error) {
		f, err := db.pool.Get(t, p)
		if err != nil {
			return nil, err
		}
		btree.SetPageNo(f.Data, p)
		btree.SetChecksum(f.Data)
		img := make([]byte, len(f.Data))
		copy(img, f.Data)
		f.Release()
		db.walMap[p] = img
		return img, nil
	})
	if err != nil {
		return err
	}
	_ = end
	db.st.PagesToWAL += int64(len(pages))
	db.walPages += len(pages)
	if err := db.wal.Sync(t); err != nil {
		return err
	}
	// The frames are durable in the WAL; they need no home flush now.
	db.pool.CleanAll()
	if db.walPages >= db.cfg.CheckpointEvery {
		return db.checkpointWAL(t)
	}
	return nil
}

// checkpointWAL writes the newest WAL image of every page into the
// database file and resets the log — the deferred second write.
func (db *DB) checkpointWAL(t *sim.Task) error {
	ps := int64(db.cfg.PageSize)
	pages := make([]uint32, 0, len(db.walMap))
	for p := range db.walMap {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, p := range pages {
		if _, err := db.file.WriteAt(t, db.walMap[p], ps*int64(p)); err != nil {
			return err
		}
		db.st.PagesToHome++
	}
	if err := db.file.Sync(t); err != nil {
		return err
	}
	if err := db.wal.Truncate(t, 0); err != nil {
		return err
	}
	if err := db.wal.Sync(t); err != nil {
		return err
	}
	db.walMap = make(map[uint32][]byte)
	db.walPages = 0
	db.st.Checkpoints++
	return nil
}

// commitShare: stage once, fsync, remap. No journal, no second write, no
// checkpoint debt; the SHARE command's delta page is the commit record.
func (db *DB) commitShare(t *sim.Task, pages []uint32) error {
	if len(pages) > db.cfg.StagePages {
		return fmt.Errorf("sqlmini: transaction touches %d pages > stage area %d",
			len(pages), db.cfg.StagePages)
	}
	ps := int64(db.cfg.PageSize)
	// Ensure home pages are allocated so SHARE can translate them.
	maxPage := pages[len(pages)-1]
	if err := db.file.Allocate(t, 0, ps*int64(maxPage+1)); err != nil {
		return err
	}
	// The dirty set is protected, so its frames' Data stays put meanwhile.
	images := make([]fsim.PageImage, len(pages))
	for i, p := range pages {
		f, err := db.pool.Get(t, p)
		if err != nil {
			return err
		}
		btree.SetPageNo(f.Data, p)
		btree.SetChecksum(f.Data)
		images[i] = fsim.PageImage{PageNo: p, Data: f.Data}
		f.Release()
	}
	if err := db.file.StageShare(t, db.stg, images); err != nil {
		return err
	}
	db.st.PagesStaged += int64(len(pages))
	db.st.SharePairs += int64(len(pages))
	// The staged copies are now redundant aliases; the pool frames are
	// exactly what the home locations read back.
	db.pool.CleanAll()
	return nil
}

// commitPages force-writes the current dirty set in place (used only for
// database initialization, before any transaction exists).
func (db *DB) commitPages(t *sim.Task) error {
	if err := db.pool.FlushAll(t); err != nil {
		return err
	}
	return db.file.Sync(t)
}

// recoverMode runs the mode's crash-recovery protocol at open.
func (db *DB) recoverMode(t *sim.Task) error {
	switch db.cfg.Mode {
	case Rollback:
		// A hot journal means a transaction's in-place writes may have
		// landed without reaching the commit point: roll them back.
		n, err := db.replayGroups(t, db.jrnl, func(pageNo uint32, img []byte) error {
			_, werr := db.file.WriteAt(t, img, int64(pageNo)*int64(db.cfg.PageSize))
			return werr
		})
		if err != nil {
			return err
		}
		db.st.RolledBack += int64(n)
		if n > 0 {
			if err := db.file.Sync(t); err != nil {
				return err
			}
		}
		if err := db.jrnl.Truncate(t, 0); err != nil {
			return err
		}
		return db.jrnl.Sync(t)
	case WAL:
		// Replay committed WAL groups forward into the file, newest image
		// last (groups are scanned in order).
		n, err := db.replayGroups(t, db.wal, func(pageNo uint32, img []byte) error {
			_, werr := db.file.WriteAt(t, img, int64(pageNo)*int64(db.cfg.PageSize))
			return werr
		})
		if err != nil {
			return err
		}
		db.st.WALRecovered += int64(n)
		if n > 0 {
			if err := db.file.Sync(t); err != nil {
				return err
			}
		}
		if err := db.wal.Truncate(t, 0); err != nil {
			return err
		}
		return db.wal.Sync(t)
	case Share:
		return nil // SHARE commits are atomic at the device: nothing to do
	}
	return nil
}

// replayGroups scans a journal/WAL file and applies every fully valid
// group in order; a torn header or torn image ends the scan (that group
// never committed). Returns the number of images applied.
func (db *DB) replayGroups(t *sim.Task, f groupFile, apply func(pageNo uint32, img []byte) error) (int, error) {
	ps := int64(db.cfg.PageSize)
	hdr := make([]byte, db.cfg.PageSize)
	applied := 0
	var off int64
	var lastSeq uint64
	for off+ps <= f.Size() {
		if _, err := f.ReadAt(t, hdr, off); err != nil {
			break
		}
		if binary.LittleEndian.Uint32(hdr[4:]) != groupMagic {
			break
		}
		if binary.LittleEndian.Uint32(hdr[0:]) != checksum32(hdr[4:]) {
			break
		}
		seq := binary.LittleEndian.Uint64(hdr[8:])
		if seq <= lastSeq {
			break
		}
		count := int(binary.LittleEndian.Uint32(hdr[16:]))
		if off+ps*int64(1+count) > f.Size() {
			break
		}
		// Validate every image before applying any of this group.
		imgs := make([][]byte, count)
		valid := true
		for i := 0; i < count; i++ {
			img := make([]byte, db.cfg.PageSize)
			if _, err := f.ReadAt(t, img, off+ps*int64(1+i)); err != nil {
				valid = false
				break
			}
			if !btree.VerifyChecksum(img) {
				valid = false
				break
			}
			imgs[i] = img
		}
		if !valid {
			break
		}
		for i := 0; i < count; i++ {
			pageNo := binary.LittleEndian.Uint32(hdr[20+4*i:])
			if err := apply(pageNo, imgs[i]); err != nil {
				return applied, err
			}
			applied++
		}
		lastSeq = seq
		off += ps * int64(1+count)
	}
	if db.walSeq < lastSeq {
		db.walSeq = lastSeq
	}
	return applied, nil
}
