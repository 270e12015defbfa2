package fsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"share/internal/sim"
	"share/internal/ssd"
)

func testFS(t *testing.T, blocks int) (*FS, *ssd.Device, *sim.Task) {
	t.Helper()
	cfg := ssd.DefaultConfig(blocks)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 16
	dev, err := ssd.New("ssd", cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewSoloTask("fs")
	fs, err := Format(task, dev, 16)
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev, task
}

func TestCreateWriteReadBack(t *testing.T) {
	fs, _, task := testFS(t, 64)
	f, err := fs.Create(task, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, flash world")
	if _, err := f.WriteAt(task, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(task, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	if f.Size() != int64(len(data)) {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestCreateDuplicateAndOpenMissing(t *testing.T) {
	fs, _, task := testFS(t, 64)
	if _, err := fs.Create(task, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(task, "x"); !errors.Is(err, ErrExist) {
		t.Fatalf("err = %v", err)
	}
	if _, err := fs.Open(task, "nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if _, err := fs.Create(task, ""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestUnalignedAndCrossPageIO(t *testing.T) {
	fs, _, task := testFS(t, 64)
	f, _ := fs.Create(task, "u")
	// Write across a page boundary at an odd offset.
	data := bytes.Repeat([]byte{0xC3}, 900)
	if _, err := f.WriteAt(task, data, 300); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 900)
	if _, err := f.ReadAt(task, got, 300); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page read mismatch")
	}
	// The hole before offset 300 reads as zeros.
	head := make([]byte, 300)
	if _, err := f.ReadAt(task, head, 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range head {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
}

func TestReadPastEOF(t *testing.T) {
	fs, _, task := testFS(t, 64)
	f, _ := fs.Create(task, "e")
	if _, err := f.WriteAt(task, []byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := f.ReadAt(task, buf, 0)
	if n != 3 || err != io.EOF {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, err := f.ReadAt(task, buf, 100); err != io.EOF {
		t.Fatalf("err = %v", err)
	}
}

func TestAllocateAndExtents(t *testing.T) {
	fs, _, task := testFS(t, 64)
	f, _ := fs.Create(task, "a")
	if err := f.Allocate(task, 0, 20*512); err != nil {
		t.Fatal(err)
	}
	if f.AllocatedPages() < 20 {
		t.Fatalf("allocated %d pages", f.AllocatedPages())
	}
	if f.Size() != 20*512 {
		t.Fatalf("size = %d", f.Size())
	}
	if len(f.Extents()) == 0 {
		t.Fatal("no extents")
	}
}

func TestTruncateShrinksAndFrees(t *testing.T) {
	fs, _, task := testFS(t, 64)
	f, _ := fs.Create(task, "tr")
	data := bytes.Repeat([]byte{1}, 10*512)
	if _, err := f.WriteAt(task, data, 0); err != nil {
		t.Fatal(err)
	}
	free := fs.FreePages()
	if err := f.Truncate(task, 2*512); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 2*512 {
		t.Fatalf("size = %d", f.Size())
	}
	if fs.FreePages() <= free {
		t.Fatal("truncate did not free pages")
	}
	// Remaining prefix intact.
	got := make([]byte, 2*512)
	if _, err := f.ReadAt(task, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:2*512]) {
		t.Fatal("prefix corrupted by truncate")
	}
}

func TestRemoveFreesSpace(t *testing.T) {
	fs, _, task := testFS(t, 64)
	f, _ := fs.Create(task, "rm")
	if _, err := f.WriteAt(task, make([]byte, 50*512), 0); err != nil {
		t.Fatal(err)
	}
	free := fs.FreePages()
	if err := fs.Remove(task, "rm"); err != nil {
		t.Fatal(err)
	}
	if fs.FreePages() <= free {
		t.Fatal("remove did not free pages")
	}
	if fs.Exists("rm") {
		t.Fatal("file still exists")
	}
	if err := fs.Remove(task, "rm"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("second remove err = %v", err)
	}
}

func TestRename(t *testing.T) {
	fs, _, task := testFS(t, 64)
	f, _ := fs.Create(task, "old")
	if _, err := f.WriteAt(task, []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(task, "old", "new"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("old") || !fs.Exists("new") {
		t.Fatal("rename did not move the entry")
	}
	g, err := fs.Open(task, "new")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := g.ReadAt(task, buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "payload" {
		t.Fatalf("got %q", buf)
	}
}

func TestSyncAndMountRoundTrip(t *testing.T) {
	fs, dev, task := testFS(t, 64)
	f, _ := fs.Create(task, "persist")
	data := bytes.Repeat([]byte{0xAB}, 3*512)
	if _, err := f.WriteAt(task, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(task); err != nil {
		t.Fatal(err)
	}
	// Crash the device and remount.
	dev.Crash()
	if err := dev.Recover(task); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(task, dev)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fs2.Open(task, "persist")
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != int64(len(data)) {
		t.Fatalf("size after remount = %d", g.Size())
	}
	got := make([]byte, len(data))
	if _, err := g.ReadAt(task, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across crash")
	}
}

func TestUnsyncedMetadataLostButConsistent(t *testing.T) {
	fs, dev, task := testFS(t, 64)
	f, _ := fs.Create(task, "keep")
	if _, err := f.WriteAt(task, []byte("kept"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(task); err != nil {
		t.Fatal(err)
	}
	// Created but never synced: may vanish across a crash.
	if _, err := fs.Create(task, "ghost"); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	if err := dev.Recover(task); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(task, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !fs2.Exists("keep") {
		t.Fatal("synced file lost")
	}
}

func TestJournalWrapCheckpoints(t *testing.T) {
	fs, dev, task := testFS(t, 64)
	f, _ := fs.Create(task, "wrap")
	buf := make([]byte, 512)
	for i := 0; i < 40; i++ {
		if _, err := f.WriteAt(task, buf, int64(i)*512); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(task); err != nil {
			t.Fatal(err)
		}
	}
	st := fs.Stats()
	if st.MetaHomeWrites == 0 {
		t.Fatal("journal never checkpointed despite wrapping")
	}
	// Still mountable and correct after all that.
	dev.Crash()
	if err := dev.Recover(task); err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(task, dev); err != nil {
		t.Fatal(err)
	}
}

func TestShareRangeBasic(t *testing.T) {
	fs, _, task := testFS(t, 64)
	src, _ := fs.Create(task, "src")
	dst, _ := fs.Create(task, "dst")
	data := bytes.Repeat([]byte{0x5A}, 4*512)
	if _, err := src.WriteAt(task, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := dst.Allocate(task, 0, 4*512); err != nil {
		t.Fatal(err)
	}
	if err := fs.ShareRange(task, dst, 0, src, 0, 4*512); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*512)
	if _, err := dst.ReadAt(task, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("shared range mismatch")
	}
}

func TestShareRangeAlignment(t *testing.T) {
	fs, _, task := testFS(t, 64)
	src, _ := fs.Create(task, "s")
	dst, _ := fs.Create(task, "d")
	if _, err := src.WriteAt(task, make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	if err := dst.Allocate(task, 0, 1024); err != nil {
		t.Fatal(err)
	}
	if err := fs.ShareRange(task, dst, 1, src, 0, 512); !errors.Is(err, ErrAlign) {
		t.Fatalf("err = %v", err)
	}
	if err := fs.ShareRange(task, dst, 0, src, 0, 0); err != nil {
		t.Fatalf("zero-length share: %v", err)
	}
}

func TestShareRangeIsZeroCopy(t *testing.T) {
	fs, dev, task := testFS(t, 128)
	src, _ := fs.Create(task, "big")
	n := 64
	data := make([]byte, n*512)
	rand.New(rand.NewSource(7)).Read(data)
	if _, err := src.WriteAt(task, data, 0); err != nil {
		t.Fatal(err)
	}
	dst, _ := fs.Create(task, "copy")
	if err := dst.Allocate(task, 0, int64(n)*512); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats()
	if err := fs.ShareRange(task, dst, 0, src, 0, int64(n)*512); err != nil {
		t.Fatal(err)
	}
	after := dev.Stats()
	if hostWrites := after.FTL.HostWrites - before.FTL.HostWrites; hostWrites != 0 {
		t.Fatalf("share performed %d host data writes; want 0", hostWrites)
	}
	got := make([]byte, n*512)
	if _, err := dst.ReadAt(task, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("zero-copy content mismatch")
	}
	if after.FTL.SharePairs == 0 {
		t.Fatal("no share pairs issued")
	}
	// Coalescing: contiguous extents need far fewer pairs than pages.
	if after.FTL.SharePairs >= int64(n) {
		t.Fatalf("no coalescing: %d pairs for %d pages", after.FTL.SharePairs, n)
	}
}

func TestShareRangeBatchesSplitAtomically(t *testing.T) {
	fs, dev, task := testFS(t, 256)
	src, _ := fs.Create(task, "s")
	// More pages than one SHARE command can carry atomically.
	n := dev.MaxShareBatch()*2 + 5
	if _, err := src.WriteAt(task, make([]byte, n*512), 0); err != nil {
		t.Fatal(err)
	}
	dst, _ := fs.Create(task, "d")
	if err := dst.Allocate(task, 0, int64(n)*512); err != nil {
		t.Fatal(err)
	}
	if err := fs.ShareRange(task, dst, 0, src, 0, int64(n)*512); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().FTL.Shares; got < 3 {
		t.Fatalf("expected >= 3 SHARE commands, got %d", got)
	}
}

func TestDeviceFilesDoNotOverlap(t *testing.T) {
	fs, _, task := testFS(t, 64)
	a, _ := fs.Create(task, "a")
	b, _ := fs.Create(task, "b")
	da := bytes.Repeat([]byte{0xAA}, 5*512)
	db := bytes.Repeat([]byte{0xBB}, 5*512)
	if _, err := a.WriteAt(task, da, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt(task, db, 0); err != nil {
		t.Fatal(err)
	}
	ga := make([]byte, len(da))
	gb := make([]byte, len(db))
	if _, err := a.ReadAt(task, ga, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadAt(task, gb, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga, da) || !bytes.Equal(gb, db) {
		t.Fatal("files overlap on device")
	}
}

func TestNoSpace(t *testing.T) {
	fs, _, task := testFS(t, 16) // tiny device
	f, _ := fs.Create(task, "huge")
	_, err := f.WriteAt(task, make([]byte, 4096*512), 0)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
}

func TestManyFilesPersist(t *testing.T) {
	fs, dev, task := testFS(t, 64)
	for i := 0; i < 20; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		f, err := fs.Create(task, name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(task, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.SyncMeta(task); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	if err := dev.Recover(task); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(task, dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		g, err := fs2.Open(task, name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		b := make([]byte, 1)
		if _, err := g.ReadAt(task, b, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if b[0] != byte(i) {
			t.Fatalf("file %s content %d", name, b[0])
		}
	}
}

func TestShareRangeAcrossFragmentedExtents(t *testing.T) {
	fs, dev, task := testFS(t, 256)
	// Interleave allocations between two files so both end up with many
	// small extents.
	a, _ := fs.Create(task, "frag-a")
	b, _ := fs.Create(task, "frag-b")
	chunk := make([]byte, 4*512)
	for i := 0; i < 10; i++ {
		for j := range chunk {
			chunk[j] = byte(i)
		}
		if _, err := a.WriteAt(task, chunk, int64(i)*int64(len(chunk))); err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteAt(task, chunk, int64(i)*int64(len(chunk))); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.Extents()) < 2 || len(b.Extents()) < 2 {
		t.Skipf("allocator did not fragment (a=%d b=%d extents)", len(a.Extents()), len(b.Extents()))
	}
	dst, _ := fs.Create(task, "frag-dst")
	if err := dst.Allocate(task, 0, a.Size()); err != nil {
		t.Fatal(err)
	}
	if err := fs.ShareRange(task, dst, 0, a, 0, a.Size()); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, a.Size())
	if _, err := dst.ReadAt(task, got, 0); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, a.Size())
	if _, err := a.ReadAt(task, want, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fragmented share mismatch")
	}
	if err := dev.FTLForTest().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMapRangeMatchesExtents(t *testing.T) {
	fs, _, task := testFS(t, 128)
	f, _ := fs.Create(task, "map")
	if _, err := f.WriteAt(task, make([]byte, 20*512), 0); err != nil {
		t.Fatal(err)
	}
	// Whole-file MapRange must cover exactly the allocated prefix pages.
	exts, err := f.MapRange(0, 20*512)
	if err != nil {
		t.Fatal(err)
	}
	total := uint32(0)
	for _, e := range exts {
		total += e.Len
	}
	if total != 20 {
		t.Fatalf("MapRange covered %d pages, want 20", total)
	}
	// Unaligned requests are rejected.
	if _, err := f.MapRange(1, 512); err == nil {
		t.Fatal("unaligned MapRange accepted")
	}
	// Beyond allocation fails.
	if _, err := f.MapRange(0, 1<<20); err == nil {
		t.Fatal("oversized MapRange accepted")
	}
}

func TestFsckCleanAfterChurn(t *testing.T) {
	fs, dev, task := testFS(t, 256)
	rng := rand.New(rand.NewSource(6))
	names := []string{"p", "q", "r", "s", "t"}
	for step := 0; step < 300; step++ {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(6) {
		case 0:
			if fs.Exists(name) {
				if err := fs.Remove(task, name); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			if fs.Exists(name) {
				f, _ := fs.Open(task, name)
				if err := f.Truncate(task, int64(rng.Intn(10))*512); err != nil {
					t.Fatal(err)
				}
			}
		default:
			if !fs.Exists(name) {
				if _, err := fs.Create(task, name); err != nil {
					t.Fatal(err)
				}
			}
			f, _ := fs.Open(task, name)
			if _, err := f.WriteAt(task, make([]byte, 512*(1+rng.Intn(4))), int64(rng.Intn(12))*512); err != nil {
				t.Fatal(err)
			}
		}
		if step%50 == 49 {
			if err := fs.Fsck(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := fs.SyncMeta(task); err != nil {
		t.Fatal(err)
	}
	// Fsck still clean after crash + remount.
	fs2 := crashMount(t, dev, task)
	if err := fs2.Fsck(); err != nil {
		t.Fatalf("post-remount: %v", err)
	}
}

// oddHoles leaves the file system with n free 5-page holes and nothing
// else: 5-page and 4-page files alternate, the 5-page ones are removed and
// the free tail is filled. Files allocated afterwards grow in 5-page
// extents, so their extent boundaries fall at offsets no power-of-two
// engine page lines up with.
func oddHoles(t *testing.T, fs *FS, task *sim.Task, n int) {
	t.Helper()
	alloc := func(name string, pages int) {
		f, err := fs.Create(task, name)
		if err == nil {
			err = f.Allocate(task, 0, int64(pages)*512)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		alloc(fmt.Sprintf("hole%d", i), 5)
		alloc(fmt.Sprintf("keep%d", i), 4)
	}
	for i := 0; i < n; i++ {
		if err := fs.Remove(task, fmt.Sprintf("hole%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.SyncMeta(task); err != nil {
		t.Fatal(err)
	}
	alloc("tail", fs.FreePages()-5*n)
}

// Two files whose extent maps split at different offsets: the destination
// is one extent, the source five-page runs, the segments two pages. Every
// pair must end where either side's run ends — pairing the i-th extent of
// one file with the i-th of the other remaps the wrong pages.
func TestShareVecMismatchedExtents(t *testing.T) {
	fs, dev, task := testFS(t, 64)
	const pages = 20
	dst, _ := fs.Create(task, "dst")
	if err := dst.Allocate(task, 0, pages*512); err != nil {
		t.Fatal(err)
	}
	oddHoles(t, fs, task, pages/5)
	src, _ := fs.Create(task, "src")
	want := make([]byte, pages*512)
	for i := range want {
		want[i] = byte(1 + i/512)
	}
	if _, err := src.WriteAt(task, want, 0); err != nil {
		t.Fatal(err)
	}
	if d, s := len(dst.Extents()), len(src.Extents()); d != 1 || s != pages/5 {
		t.Fatalf("layout: dst %d extents, src %d; want 1 and %d", d, s, pages/5)
	}
	var segs []ShareSeg
	for off := int64(0); off < pages*512; off += 2 * 512 {
		segs = append(segs, ShareSeg{Dst: dst, DstOff: off, Src: src, SrcOff: off, Len: 2 * 512})
	}
	before := dev.Stats().FTL.SharePairs
	if err := fs.ShareVec(task, segs); err != nil {
		t.Fatal(err)
	}
	// Source runs end at pages 5, 10, 15: the segments covering pages 4-5
	// and 14-15 straddle one and split in two.
	if got := dev.Stats().FTL.SharePairs - before; got != int64(len(segs))+2 {
		t.Fatalf("issued %d pairs, want %d", got, len(segs)+2)
	}
	got := make([]byte, len(want))
	if _, err := dst.ReadAt(task, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("destination does not read back the source's content")
	}
	if err := dev.FTLForTest().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
}
