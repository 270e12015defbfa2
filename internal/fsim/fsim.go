// Package fsim is a minimal extent-based file system over the simulated
// SSD, standing in for the ext4 (ordered journaling mode, O_DIRECT) setup
// the paper runs on. It provides exactly the facilities the database
// engines and the SHARE integration need:
//
//   - files with extent maps, preallocation (fallocate) and truncation;
//   - direct I/O: data reads and writes go straight to device pages;
//   - ordered-mode metadata journaling: fsync writes the dirty metadata
//     pages into a journal transaction (descriptor + images + commit) and
//     issues a device flush — this is the file-system write traffic that
//     keeps the paper's InnoDB host-write reduction below the ideal 50%;
//   - crash recovery at mount: committed journal transactions are replayed
//     into the metadata home locations;
//   - the SHARE ioctl: ShareVec (ShareRange for one range) translates
//     file offsets to LPNs through the extent maps of both files — one
//     pair per physically contiguous run — and hands the pair list to the
//     device's ShareAll, which packs it into atomic commands. Engines never
//     build pairs themselves.
package fsim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"share/internal/sim"
	"share/internal/ssd"
)

// Tunables fixed at format time.
const (
	MaxFiles   = 96
	MaxExtents = 24
	MaxNameLen = 31

	sbMagic   = 0x4653494D // "FSIM"
	descMagic = 0x4A444553 // journal descriptor
	cmtMagic  = 0x4A434D54 // journal commit
	fcMagic   = 0x4A464153 // journal fast-commit block
)

var (
	// ErrExist is returned by Create for a duplicate name.
	ErrExist = errors.New("fsim: file exists")
	// ErrNotExist is returned for unknown names.
	ErrNotExist = errors.New("fsim: file does not exist")
	// ErrNoSpace is returned when the data area or an inode's extent list
	// is exhausted.
	ErrNoSpace = errors.New("fsim: no space")
	// ErrAlign is returned by ShareVec and MapRange for unaligned arguments.
	ErrAlign = errors.New("fsim: share range must be page aligned")
)

// Extent is a contiguous run of file pages mapped to device pages.
type Extent struct {
	Start uint32 // first device LPN
	Len   uint32 // length in pages
}

type inode struct {
	used    bool
	size    int64
	extents []Extent
}

// layout describes where each metadata region lives, in device pages.
type layout struct {
	total        uint32
	dirStart     uint32
	dirPages     uint32
	inodeStart   uint32
	inodePages   uint32
	bitmapStart  uint32
	bitmapPages  uint32
	journalStart uint32
	journalPages uint32
	dataStart    uint32
}

// FS is a mounted file system.
//
// Concurrency: a dual-mode sim.Mutex latch serializes every operation
// that touches shared metadata (directory, inode table, bitmap, journal,
// trim queue), so multiple sessions — scheduler tasks or real solo-task
// goroutines — can drive one FS. Device commands for file data — the page
// I/O of ReadAt/WriteAt and the SHARE commands of ShareVec — run outside
// the latch (the extent maps are resolved under it first), so sessions
// working on different files overlap at the device exactly like O_DIRECT
// traffic. Concurrent access to the *same* file is the application's job
// to coordinate, as with POSIX; the per-handle queries (Size, Extents,
// AllocatedPages, MapRange) rely on that and read their own inode
// unlatched. Exists/Stats/Fsck/FreePages also read without the latch and
// are meant for setup and post-run checks on a quiescent FS.
type FS struct {
	dev      *ssd.Device
	pageSize int
	lay      layout
	latch    sim.Mutex // guards all fields below

	dir    map[string]int
	inodes []inode
	bitmap []uint64 // one bit per data page, 1 = allocated

	dirtyMeta map[uint32]bool // home metadata pages needing journaling
	dirtyInos map[int]bool    // inodes changed since the last commit (fast-commit path)
	// pending maps journaled pages whose home copy is stale to the page
	// image as of the last commit. The checkpoint must write these captured
	// images — re-rendering in-memory state at checkpoint time would leak
	// uncommitted metadata (e.g. a freshly created file's inode) to home
	// locations, which a crash then exposes without the rest of its
	// transaction.
	pending map[uint32][]byte
	seq     uint64 // journal transaction sequence
	ckptSeq uint64 // all txns <= ckptSeq are reflected at home
	jHead   uint32 // next free journal slot

	// pendingTrims holds extents freed by Remove/Truncate whose device
	// trims are deferred until the journal commit recording the free is
	// durable (see runPendingTrims) — trimming earlier could destroy pages
	// the on-disk metadata still references across a crash.
	pendingTrims []Extent

	// Stats.
	metaJournalWrites int64
	metaHomeWrites    int64
}

// File is an open handle. Handles stay valid until Remove.
type File struct {
	fs     *FS
	ino    int
	name   string
	stream int // default device write-stream hint for this handle; < 0 unhinted
}

func (fs *FS) inodesPerPage() int     { return fs.pageSize / inodeSize }
func (fs *FS) dirEntriesPerPage() int { return (fs.pageSize - 4) / dirEntrySize }

const (
	inodeSize    = 2 + 8 + 2 + MaxExtents*8 // used, size, extent count, extents
	dirEntrySize = 2 + 1 + MaxNameLen       // ino, name length, name
)

// Format writes a fresh file system across the whole device and mounts it.
// journalPages sets the journal region size (64 is a reasonable default).
func Format(t *sim.Task, dev *ssd.Device, journalPages int) (*FS, error) {
	fs := &FS{dev: dev, pageSize: dev.PageSize()}
	if journalPages < 8 {
		journalPages = 8
	}
	total := uint32(dev.Capacity())
	ipp := fs.pageSize / inodeSize
	if ipp == 0 {
		return nil, fmt.Errorf("fsim: page size %d too small for inodes", fs.pageSize)
	}
	inodePages := uint32((MaxFiles + ipp - 1) / ipp)
	dpp := (fs.pageSize - 4) / dirEntrySize
	dirPages := uint32((MaxFiles + dpp - 1) / dpp)
	lay := layout{total: total}
	next := uint32(1) // page 0 is the superblock
	lay.dirStart, next = next, next+dirPages
	lay.dirPages = dirPages
	lay.inodeStart, next = next, next+inodePages
	lay.inodePages = inodePages
	// Bitmap covers the data region; sized against the whole device for
	// simplicity (slightly generous).
	bits := int(total)
	bitmapPages := uint32((bits + fs.pageSize*8 - 1) / (fs.pageSize * 8))
	lay.bitmapStart, next = next, next+bitmapPages
	lay.bitmapPages = bitmapPages
	lay.journalStart, next = next, next+uint32(journalPages)
	lay.journalPages = uint32(journalPages)
	lay.dataStart = next
	if lay.dataStart >= total {
		return nil, fmt.Errorf("fsim: device too small (%d pages)", total)
	}
	fs.lay = lay
	fs.dir = make(map[string]int)
	fs.inodes = make([]inode, MaxFiles)
	fs.bitmap = make([]uint64, (int(total)+63)/64)
	fs.dirtyMeta = make(map[uint32]bool)
	fs.dirtyInos = make(map[int]bool)
	fs.pending = make(map[uint32][]byte)

	// Write all metadata home pages and the superblock.
	for p := lay.dirStart; p < lay.dataStart; p++ {
		if p >= lay.journalStart && p < lay.journalStart+lay.journalPages {
			continue // journal pages are written lazily
		}
		if err := dev.WritePage(t, p, fs.renderMetaPage(p)); err != nil {
			return nil, err
		}
	}
	if err := fs.writeSuper(t); err != nil {
		return nil, err
	}
	if err := dev.Flush(t); err != nil {
		return nil, err
	}
	return fs, nil
}

func (fs *FS) writeSuper(t *sim.Task) error {
	buf := make([]byte, fs.pageSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], sbMagic)
	le.PutUint32(buf[4:], fs.lay.total)
	le.PutUint32(buf[8:], fs.lay.dirStart)
	le.PutUint32(buf[12:], fs.lay.dirPages)
	le.PutUint32(buf[16:], fs.lay.inodeStart)
	le.PutUint32(buf[20:], fs.lay.inodePages)
	le.PutUint32(buf[24:], fs.lay.bitmapStart)
	le.PutUint32(buf[28:], fs.lay.bitmapPages)
	le.PutUint32(buf[32:], fs.lay.journalStart)
	le.PutUint32(buf[36:], fs.lay.journalPages)
	le.PutUint32(buf[40:], fs.lay.dataStart)
	le.PutUint64(buf[44:], fs.ckptSeq)
	fs.metaHomeWrites++
	return fs.dev.WritePage(t, 0, buf)
}

// Mount loads the file system from the device, replaying any committed
// journal transactions (crash recovery).
func Mount(t *sim.Task, dev *ssd.Device) (*FS, error) {
	fs := &FS{dev: dev, pageSize: dev.PageSize()}
	buf := make([]byte, fs.pageSize)
	if err := dev.ReadPage(t, 0, buf); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != sbMagic {
		return nil, fmt.Errorf("fsim: bad superblock magic")
	}
	fs.lay = layout{
		total:        le.Uint32(buf[4:]),
		dirStart:     le.Uint32(buf[8:]),
		dirPages:     le.Uint32(buf[12:]),
		inodeStart:   le.Uint32(buf[16:]),
		inodePages:   le.Uint32(buf[20:]),
		bitmapStart:  le.Uint32(buf[24:]),
		bitmapPages:  le.Uint32(buf[28:]),
		journalStart: le.Uint32(buf[32:]),
		journalPages: le.Uint32(buf[36:]),
		dataStart:    le.Uint32(buf[40:]),
	}
	fs.ckptSeq = le.Uint64(buf[44:])
	fs.seq = fs.ckptSeq
	fs.dirtyMeta = make(map[uint32]bool)
	fs.dirtyInos = make(map[int]bool)
	fs.pending = make(map[uint32][]byte)

	if err := fs.replayJournal(t); err != nil {
		return nil, err
	}
	if err := fs.loadMeta(t); err != nil {
		return nil, err
	}
	return fs, nil
}

// loadMeta reads directory, inode and bitmap pages from home locations.
func (fs *FS) loadMeta(t *sim.Task) error {
	fs.dir = make(map[string]int)
	fs.inodes = make([]inode, MaxFiles)
	fs.bitmap = make([]uint64, (int(fs.lay.total)+63)/64)
	buf := make([]byte, fs.pageSize)
	le := binary.LittleEndian
	// Directory.
	dpp := fs.dirEntriesPerPage()
	for p := uint32(0); p < fs.lay.dirPages; p++ {
		if err := fs.dev.ReadPage(t, fs.lay.dirStart+p, buf); err != nil {
			return err
		}
		n := int(le.Uint32(buf[0:]))
		off := 4
		for i := 0; i < n && i < dpp; i++ {
			ino := int(le.Uint16(buf[off:]))
			nl := int(buf[off+2])
			name := string(buf[off+3 : off+3+nl])
			fs.dir[name] = ino
			off += dirEntrySize
		}
	}
	// Inodes.
	ipp := fs.inodesPerPage()
	for p := uint32(0); p < fs.lay.inodePages; p++ {
		if err := fs.dev.ReadPage(t, fs.lay.inodeStart+p, buf); err != nil {
			return err
		}
		for i := 0; i < ipp; i++ {
			idx := int(p)*ipp + i
			if idx >= MaxFiles {
				break
			}
			off := i * inodeSize
			ind := &fs.inodes[idx]
			ind.used = buf[off] == 1
			ind.size = int64(le.Uint64(buf[off+2:]))
			cnt := int(le.Uint16(buf[off+10:]))
			ind.extents = nil
			for e := 0; e < cnt && e < MaxExtents; e++ {
				eo := off + 12 + e*8
				ind.extents = append(ind.extents, Extent{
					Start: le.Uint32(buf[eo:]),
					Len:   le.Uint32(buf[eo+4:]),
				})
			}
		}
	}
	// Bitmap.
	for p := uint32(0); p < fs.lay.bitmapPages; p++ {
		if err := fs.dev.ReadPage(t, fs.lay.bitmapStart+p, buf); err != nil {
			return err
		}
		base := int(p) * fs.pageSize / 8
		for w := 0; w < fs.pageSize/8; w++ {
			if base+w < len(fs.bitmap) {
				fs.bitmap[base+w] = le.Uint64(buf[w*8:])
			}
		}
	}
	return nil
}

// renderMetaPage serializes the current in-memory state of one metadata
// home page (directory, inode or bitmap page).
func (fs *FS) renderMetaPage(p uint32) []byte {
	buf := make([]byte, fs.pageSize)
	le := binary.LittleEndian
	switch {
	case p >= fs.lay.dirStart && p < fs.lay.dirStart+fs.lay.dirPages:
		// Directory entries are packed densely in name order across the
		// dir pages; rebuild the global list and slice this page's part.
		names := make([]string, 0, len(fs.dir))
		for name := range fs.dir {
			names = append(names, name)
		}
		sortStrings(names)
		dpp := fs.dirEntriesPerPage()
		pageIdx := int(p - fs.lay.dirStart)
		start := pageIdx * dpp
		cnt := 0
		off := 4
		for i := start; i < len(names) && i < start+dpp; i++ {
			name := names[i]
			le.PutUint16(buf[off:], uint16(fs.dir[name]))
			buf[off+2] = byte(len(name))
			copy(buf[off+3:], name)
			off += dirEntrySize
			cnt++
		}
		le.PutUint32(buf[0:], uint32(cnt))
	case p >= fs.lay.inodeStart && p < fs.lay.inodeStart+fs.lay.inodePages:
		ipp := fs.inodesPerPage()
		pageIdx := int(p - fs.lay.inodeStart)
		for i := 0; i < ipp; i++ {
			idx := pageIdx*ipp + i
			if idx >= MaxFiles {
				break
			}
			off := i * inodeSize
			ind := &fs.inodes[idx]
			if ind.used {
				buf[off] = 1
			}
			le.PutUint64(buf[off+2:], uint64(ind.size))
			le.PutUint16(buf[off+10:], uint16(len(ind.extents)))
			for e, ext := range ind.extents {
				eo := off + 12 + e*8
				le.PutUint32(buf[eo:], ext.Start)
				le.PutUint32(buf[eo+4:], ext.Len)
			}
		}
	case p >= fs.lay.bitmapStart && p < fs.lay.bitmapStart+fs.lay.bitmapPages:
		pageIdx := int(p - fs.lay.bitmapStart)
		base := pageIdx * fs.pageSize / 8
		for w := 0; w < fs.pageSize/8; w++ {
			if base+w < len(fs.bitmap) {
				le.PutUint64(buf[w*8:], fs.bitmap[base+w])
			}
		}
	default:
		panic(fmt.Sprintf("fsim: renderMetaPage(%d) outside metadata", p))
	}
	return buf
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// markInodeDirty flags the home page holding ino for the next journal txn.
func (fs *FS) markInodeDirty(ino int) {
	fs.dirtyMeta[fs.lay.inodeStart+uint32(ino/fs.inodesPerPage())] = true
	fs.dirtyInos[ino] = true
}

// markDirDirty flags all directory pages (entries shift between pages).
func (fs *FS) markDirDirty() {
	for p := uint32(0); p < fs.lay.dirPages; p++ {
		fs.dirtyMeta[fs.lay.dirStart+p] = true
	}
}

// markBitmapDirty flags the bitmap page covering data page bit.
func (fs *FS) markBitmapDirty(bit uint32) {
	fs.dirtyMeta[fs.lay.bitmapStart+bit/uint32(fs.pageSize*8)] = true
}

// Stats reports metadata write activity.
type Stats struct {
	MetaJournalWrites int64 // journal descriptor/image/commit pages
	MetaHomeWrites    int64 // metadata pages written in place (checkpoint)
}

// Stats returns a snapshot of file-system metadata traffic.
func (fs *FS) Stats() Stats {
	return Stats{MetaJournalWrites: fs.metaJournalWrites, MetaHomeWrites: fs.metaHomeWrites}
}

// Device returns the underlying device (for stats and direct SHARE use).
func (fs *FS) Device() *ssd.Device { return fs.dev }

// Fsck validates the file system's internal consistency: every allocated
// bitmap bit is covered by exactly one file extent, no extent crosses into
// the metadata area, and no two files overlap. It returns the first
// violation found.
func (fs *FS) Fsck() error {
	owner := make(map[uint32]int) // data page -> inode
	for ino := range fs.inodes {
		ind := &fs.inodes[ino]
		if !ind.used {
			if len(ind.extents) != 0 {
				return fmt.Errorf("fsim: free inode %d has extents", ino)
			}
			continue
		}
		var pages int64
		for _, e := range ind.extents {
			if e.Len == 0 {
				return fmt.Errorf("fsim: inode %d has empty extent", ino)
			}
			if e.Start < fs.lay.dataStart || e.Start+e.Len > fs.lay.total {
				return fmt.Errorf("fsim: inode %d extent [%d,+%d) outside data area", ino, e.Start, e.Len)
			}
			for i := uint32(0); i < e.Len; i++ {
				p := e.Start + i
				if prev, dup := owner[p]; dup {
					return fmt.Errorf("fsim: page %d owned by inodes %d and %d", p, prev, ino)
				}
				owner[p] = ino
				if !fs.bitGet(p) {
					return fmt.Errorf("fsim: inode %d uses unallocated page %d", ino, p)
				}
			}
			pages += int64(e.Len)
		}
		if need := (ind.size + int64(fs.pageSize) - 1) / int64(fs.pageSize); pages < need {
			return fmt.Errorf("fsim: inode %d size %d exceeds allocation %d pages", ino, ind.size, pages)
		}
	}
	// Every set bitmap bit must have an owner.
	for bit := fs.lay.dataStart; bit < fs.lay.total; bit++ {
		if fs.bitGet(bit) {
			if _, ok := owner[bit]; !ok {
				return fmt.Errorf("fsim: leaked allocation at page %d", bit)
			}
		}
	}
	// Directory entries must reference used inodes, uniquely.
	seen := make(map[int]string)
	for name, ino := range fs.dir {
		if ino < 0 || ino >= len(fs.inodes) || !fs.inodes[ino].used {
			return fmt.Errorf("fsim: dir entry %q references bad inode %d", name, ino)
		}
		if prev, dup := seen[ino]; dup {
			return fmt.Errorf("fsim: inode %d referenced by %q and %q", ino, prev, name)
		}
		seen[ino] = name
	}
	return nil
}
