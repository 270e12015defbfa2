// Package core is the host-side SHARE library — the user-level protocol
// layer the paper describes between applications and the SHARE-capable
// device (its prototype speaks ioctl to the OpenSSD firmware). It provides
//
//   - an atomic multi-page commit primitive (journal-free shadow write +
//     one SHARE batch), the pattern InnoDB's doublewrite integration and
//     the SQLite discussion in §3.3 both reduce to;
//   - zero-copy file duplication through the file-system SHARE ioctl.
package core

import (
	"fmt"

	"share/internal/fsim"
	"share/internal/sim"
	"share/internal/ssd"
)

// Pair re-exports the SHARE remapping pair.
type Pair = ssd.Pair

// AtomicWriter commits groups of page updates atomically without a
// redundant second write: new versions are first written to a scratch
// (shadow) region, then a single SHARE batch remaps every home page onto
// its shadow copy. If the batch fits the device's atomic limit, the commit
// is all-or-nothing across power failure.
type AtomicWriter struct {
	dev        *ssd.Device
	scratchLPN uint32
	scratchLen uint32
	next       uint32
	pending    []Pair
}

// NewAtomicWriter reserves [scratchLPN, scratchLPN+scratchLen) as the
// shadow area. The area must not overlap live data.
func NewAtomicWriter(dev *ssd.Device, scratchLPN, scratchLen uint32) (*AtomicWriter, error) {
	if scratchLen == 0 {
		return nil, fmt.Errorf("core: empty scratch area")
	}
	if int(scratchLen) > dev.MaxShareBatch() {
		return nil, fmt.Errorf("core: scratch area %d exceeds atomic batch limit %d",
			scratchLen, dev.MaxShareBatch())
	}
	return &AtomicWriter{dev: dev, scratchLPN: scratchLPN, scratchLen: scratchLen}, nil
}

// Stage writes one page's new content into the shadow area and records
// the intended home location. Nothing is visible at home yet.
func (w *AtomicWriter) Stage(t *sim.Task, home uint32, data []byte) error {
	if w.next >= w.scratchLen {
		return fmt.Errorf("core: scratch area full (%d pages)", w.scratchLen)
	}
	lpn := w.scratchLPN + w.next
	if err := w.dev.WritePage(t, lpn, data); err != nil {
		return err
	}
	w.pending = append(w.pending, Pair{Dst: home, Src: lpn, Len: 1})
	w.next++
	return nil
}

// Commit makes every staged page visible at its home location atomically:
// a device flush persists the shadow writes, then one SHARE batch remaps
// all homes. Returns the number of pages committed.
func (w *AtomicWriter) Commit(t *sim.Task) (int, error) {
	if len(w.pending) == 0 {
		return 0, nil
	}
	if err := w.dev.Flush(t); err != nil {
		return 0, err
	}
	if err := w.dev.Share(t, w.pending); err != nil {
		return 0, err
	}
	n := len(w.pending)
	w.pending = w.pending[:0]
	w.next = 0
	return n, nil
}

// Abort discards staged pages without touching home locations.
func (w *AtomicWriter) Abort() {
	w.pending = w.pending[:0]
	w.next = 0
}

// Staged reports how many pages are staged but uncommitted.
func (w *AtomicWriter) Staged() int { return len(w.pending) }

// CopyFile duplicates src into a new file named dstName without copying
// any data: it allocates the destination and SHAREs the whole range (the
// "file copy operations ... almost without copying data" case from §1).
// The trailing partial page, if any, is copied through the host since
// SHARE works in whole mapping units.
func CopyFile(t *sim.Task, fs *fsim.FS, dstName, srcName string) (*fsim.File, error) {
	src, err := fs.Open(t, srcName)
	if err != nil {
		return nil, err
	}
	dst, err := fs.Create(t, dstName)
	if err != nil {
		return nil, err
	}
	size := src.Size()
	ps := int64(fs.Device().PageSize())
	whole := size / ps * ps
	if whole > 0 {
		if err := dst.Allocate(t, 0, whole); err != nil {
			return nil, err
		}
		if err := fs.ShareRange(t, dst, 0, src, 0, whole); err != nil {
			return nil, err
		}
	}
	if tail := size - whole; tail > 0 {
		buf := make([]byte, tail)
		if _, err := src.ReadAt(t, buf, whole); err != nil {
			return nil, err
		}
		if _, err := dst.WriteAt(t, buf, whole); err != nil {
			return nil, err
		}
	}
	if err := dst.Truncate(t, size); err != nil {
		return nil, err
	}
	return dst, nil
}
