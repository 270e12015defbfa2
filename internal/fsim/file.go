package fsim

import (
	"fmt"
	"io"

	"share/internal/sim"
)

// Create makes a new empty file and returns an open handle.
func (fs *FS) Create(t *sim.Task, name string) (*File, error) {
	if len(name) == 0 || len(name) > MaxNameLen {
		return nil, fmt.Errorf("fsim: bad name %q", name)
	}
	fs.latch.Lock(t)
	defer fs.latch.Unlock(t)
	if _, ok := fs.dir[name]; ok {
		return nil, ErrExist
	}
	ino := -1
	for i := range fs.inodes {
		if !fs.inodes[i].used {
			ino = i
			break
		}
	}
	if ino < 0 {
		return nil, fmt.Errorf("%w: inode table full", ErrNoSpace)
	}
	fs.inodes[ino] = inode{used: true}
	fs.dir[name] = ino
	fs.markDirDirty()
	fs.markInodeDirty(ino)
	return &File{fs: fs, ino: ino, name: name, stream: -1}, nil
}

// Open returns a handle to an existing file.
func (fs *FS) Open(t *sim.Task, name string) (*File, error) {
	fs.latch.Lock(t)
	defer fs.latch.Unlock(t)
	ino, ok := fs.dir[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return &File{fs: fs, ino: ino, name: name, stream: -1}, nil
}

// Remove deletes a file. Its device pages are trimmed at the next fsync,
// after the journal commit recording the deletion is durable.
func (fs *FS) Remove(t *sim.Task, name string) error {
	fs.latch.Lock(t)
	defer fs.latch.Unlock(t)
	ino, ok := fs.dir[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	ind := &fs.inodes[ino]
	for _, ext := range ind.extents {
		fs.freeExtent(ext)
		fs.deferTrim(ext)
	}
	*ind = inode{}
	delete(fs.dir, name)
	fs.markDirDirty()
	fs.markInodeDirty(ino)
	return nil
}

// Exists reports whether name is present.
func (fs *FS) Exists(name string) bool {
	_, ok := fs.dir[name]
	return ok
}

// Rename changes a file's name (used by compaction to swap the new
// database file into place).
func (fs *FS) Rename(t *sim.Task, oldName, newName string) error {
	fs.latch.Lock(t)
	defer fs.latch.Unlock(t)
	ino, ok := fs.dir[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldName)
	}
	if _, ok := fs.dir[newName]; ok {
		return ErrExist
	}
	delete(fs.dir, oldName)
	fs.dir[newName] = ino
	fs.markDirDirty()
	return nil
}

// Name returns the name the handle was opened with.
func (f *File) Name() string { return f.name }

// SetStream sets the handle's default device write-stream hint: every
// WriteAt through this handle carries it, so a whole file's pages land in
// one open NAND block per die (per-object placement, the fadvise-style
// knob of multi-stream SSDs). A negative value restores unhinted writes.
// Per-handle, not per-inode: two handles on one file may hint differently.
func (f *File) SetStream(s int) { f.stream = s }

// Stream returns the handle's default write-stream hint (< 0 unhinted).
func (f *File) Stream() int { return f.stream }

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.fs.inodes[f.ino].size }

// Extents returns a copy of the file's extent map (FIEMAP).
func (f *File) Extents() []Extent {
	src := f.fs.inodes[f.ino].extents
	out := make([]Extent, len(src))
	copy(out, src)
	return out
}

// AllocatedPages returns the number of device pages backing the file.
func (f *File) AllocatedPages() int {
	n := 0
	for _, e := range f.fs.inodes[f.ino].extents {
		n += int(e.Len)
	}
	return n
}

// lpnAt translates a page-aligned file offset to a device LPN, along with
// the number of contiguous pages available from there within one extent.
func (f *File) lpnAt(pageOff uint32) (lpn uint32, run uint32, err error) {
	for _, e := range f.fs.inodes[f.ino].extents {
		if pageOff < e.Len {
			return e.Start + pageOff, e.Len - pageOff, nil
		}
		pageOff -= e.Len
	}
	return 0, 0, fmt.Errorf("fsim: offset beyond allocation in %s", f.name)
}

// MapRange translates the page-aligned byte range [off, off+length) into
// device extents, physically adjacent ones merged (a FIEMAP query). It is
// for callers that address device pages themselves — a post-remap Trim, an
// atomic multi-page write; SHARE goes through FS.ShareVec, which pairs two
// such maps itself. Like Size and Extents it reads the handle's inode
// without the FS latch: only operations on this same file change it, and
// those are the caller's to coordinate.
func (f *File) MapRange(off, length int64) ([]Extent, error) {
	ps := int64(f.fs.pageSize)
	if off%ps != 0 || length%ps != 0 {
		return nil, fmt.Errorf("%w: off %d len %d", ErrAlign, off, length)
	}
	var out []Extent
	pageOff := uint32(off / ps)
	pages := uint32(length / ps)
	for pages > 0 {
		lpn, run, err := f.lpnAt(pageOff)
		if err != nil {
			return nil, err
		}
		if run > pages {
			run = pages
		}
		if n := len(out); n > 0 && out[n-1].Start+out[n-1].Len == lpn {
			out[n-1].Len += run
		} else {
			out = append(out, Extent{Start: lpn, Len: run})
		}
		pageOff += run
		pages -= run
	}
	return out, nil
}

// Allocate ensures pages backing [off, off+length) exist (fallocate).
// The file size is extended to cover the range if needed.
func (f *File) Allocate(t *sim.Task, off, length int64) error {
	f.fs.latch.Lock(t)
	defer f.fs.latch.Unlock(t)
	return f.allocate(t, off, length)
}

// allocate is Allocate with the latch already held.
func (f *File) allocate(t *sim.Task, off, length int64) error {
	if off < 0 || length < 0 {
		return fmt.Errorf("fsim: negative allocate range")
	}
	ps := int64(f.fs.pageSize)
	needPages := (off + length + ps - 1) / ps
	if err := f.fs.ensurePages(t, f.ino, needPages); err != nil {
		return err
	}
	ind := &f.fs.inodes[f.ino]
	if off+length > ind.size {
		ind.size = off + length
		f.fs.markInodeDirty(f.ino)
	}
	return nil
}

// Truncate sets the file size. Shrinking trims whole pages beyond the new
// size and returns them to the allocator.
func (f *File) Truncate(t *sim.Task, size int64) error {
	if size < 0 {
		return fmt.Errorf("fsim: negative truncate")
	}
	f.fs.latch.Lock(t)
	defer f.fs.latch.Unlock(t)
	ind := &f.fs.inodes[f.ino]
	ps := int64(f.fs.pageSize)
	keepPages := uint32((size + ps - 1) / ps)
	total := uint32(f.AllocatedPages())
	if keepPages < total {
		drop := total - keepPages
		for drop > 0 {
			last := &ind.extents[len(ind.extents)-1]
			n := last.Len
			if n > drop {
				n = drop
			}
			freed := Extent{Start: last.Start + last.Len - n, Len: n}
			last.Len -= n
			if last.Len == 0 {
				ind.extents = ind.extents[:len(ind.extents)-1]
			}
			f.fs.freeExtent(freed)
			f.fs.deferTrim(freed)
			drop -= n
		}
	}
	if ind.size != size {
		ind.size = size
	}
	f.fs.markInodeDirty(f.ino)
	return nil
}

// WriteAt writes p at byte offset off (direct I/O). Space is allocated as
// needed; partial-page writes perform a read-modify-write of the page.
// Allocation and extent resolution happen under the FS latch; the data
// page I/O runs outside it, so sessions writing different files overlap
// at the device. Device writes carry the handle's default stream hint.
func (f *File) WriteAt(t *sim.Task, p []byte, off int64) (int, error) {
	return f.WriteAtStream(t, p, off, f.stream)
}

// WriteAtStream is WriteAt with a per-write stream override: stream >= 0
// steers this write's pages to that device stream regardless of the
// handle default, stream < 0 writes unhinted.
func (f *File) WriteAtStream(t *sim.Task, p []byte, off int64, stream int) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("fsim: negative offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	fs := f.fs
	ps := int64(fs.pageSize)
	fs.latch.Lock(t)
	if err := f.allocate(t, off, int64(len(p))); err != nil {
		fs.latch.Unlock(t)
		return 0, err
	}
	firstPage := uint32(off / ps)
	lastPage := uint32((off + int64(len(p)) - 1) / ps)
	lpns := make([]uint32, 0, lastPage-firstPage+1)
	for pg := firstPage; pg <= lastPage; pg++ {
		lpn, _, err := f.lpnAt(pg)
		if err != nil {
			fs.latch.Unlock(t)
			return 0, err
		}
		lpns = append(lpns, lpn)
	}
	// Any write dirties the inode (mtime/size), which ordered-mode
	// journaling will carry into the next fsync transaction. allocate
	// already extended the size to cover the range.
	fs.markInodeDirty(f.ino)
	fs.latch.Unlock(t)

	written := 0
	buf := make([]byte, fs.pageSize)
	for written < len(p) {
		cur := off + int64(written)
		within := int(cur % ps)
		n := fs.pageSize - within
		if n > len(p)-written {
			n = len(p) - written
		}
		lpn := lpns[uint32(cur/ps)-firstPage]
		if within == 0 && n == fs.pageSize {
			if err := fs.dev.WritePageStream(t, lpn, p[written:written+n], stream); err != nil {
				return written, err
			}
		} else {
			if err := fs.dev.ReadPage(t, lpn, buf); err != nil {
				return written, err
			}
			copy(buf[within:], p[written:written+n])
			if err := fs.dev.WritePageStream(t, lpn, buf, stream); err != nil {
				return written, err
			}
		}
		written += n
	}
	return written, nil
}

// ReadAt reads into p from byte offset off. Reads past EOF return io.EOF
// after the available bytes. The size and extent map are snapshotted
// under the FS latch; the data page I/O runs outside it.
func (f *File) ReadAt(t *sim.Task, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("fsim: negative offset")
	}
	fs := f.fs
	ps := int64(fs.pageSize)
	fs.latch.Lock(t)
	size := fs.inodes[f.ino].size
	if off >= size {
		fs.latch.Unlock(t)
		return 0, io.EOF
	}
	max := int(size - off)
	want := len(p)
	if want > max {
		want = max
	}
	firstPage := uint32(off / ps)
	lastPage := uint32((off + int64(want) - 1) / ps)
	lpns := make([]uint32, 0, lastPage-firstPage+1)
	for pg := firstPage; pg <= lastPage; pg++ {
		lpn, _, err := f.lpnAt(pg)
		if err != nil {
			fs.latch.Unlock(t)
			return 0, err
		}
		lpns = append(lpns, lpn)
	}
	fs.latch.Unlock(t)

	buf := make([]byte, fs.pageSize)
	read := 0
	for read < want {
		cur := off + int64(read)
		within := int(cur % ps)
		n := fs.pageSize - within
		if n > want-read {
			n = want - read
		}
		lpn := lpns[uint32(cur/ps)-firstPage]
		if err := fs.dev.ReadPage(t, lpn, buf); err != nil {
			return read, err
		}
		copy(p[read:read+n], buf[within:within+n])
		read += n
	}
	if want < len(p) {
		return read, io.EOF
	}
	return read, nil
}

// Sync journals the dirty metadata and flushes the device — the fsync
// path. Data pages were written directly, so after Sync both data and
// metadata are durable (ordered mode).
func (f *File) Sync(t *sim.Task) error { return f.fs.SyncMeta(t) }
