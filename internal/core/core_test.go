package core

import (
	"bytes"
	"testing"

	"share/internal/fsim"
	"share/internal/sim"
	"share/internal/ssd"
)

func testDev(t *testing.T, blocks int) (*ssd.Device, *sim.Task) {
	t.Helper()
	cfg := ssd.DefaultConfig(blocks)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 16
	dev, err := ssd.New("dev", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev, sim.NewSoloTask("t")
}

func TestAtomicWriterCommit(t *testing.T) {
	dev, task := testDev(t, 128)
	buf := make([]byte, dev.PageSize())
	// Seed home pages.
	for i := uint32(0); i < 4; i++ {
		buf[0] = 0x10 + byte(i)
		if err := dev.WritePage(task, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	w, err := NewAtomicWriter(dev, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 4; i++ {
		buf[0] = 0x20 + byte(i)
		if err := w.Stage(task, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if w.Staged() != 4 {
		t.Fatalf("staged = %d", w.Staged())
	}
	// Homes unchanged until commit.
	if err := dev.ReadPage(task, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x10 {
		t.Fatal("stage leaked to home")
	}
	n, err := w.Commit(task)
	if err != nil || n != 4 {
		t.Fatalf("commit n=%d err=%v", n, err)
	}
	for i := uint32(0); i < 4; i++ {
		if err := dev.ReadPage(task, i, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0x20+byte(i) {
			t.Fatalf("home %d = %x", i, buf[0])
		}
	}
}

func TestAtomicWriterCommitSurvivesCrash(t *testing.T) {
	dev, task := testDev(t, 128)
	buf := make([]byte, dev.PageSize())
	for i := uint32(0); i < 3; i++ {
		buf[0] = 1
		if err := dev.WritePage(task, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Flush(task); err != nil {
		t.Fatal(err)
	}
	w, _ := NewAtomicWriter(dev, 500, 8)
	for i := uint32(0); i < 3; i++ {
		buf[0] = 2
		if err := w.Stage(task, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Commit(task); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	if err := dev.Recover(task); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 3; i++ {
		if err := dev.ReadPage(task, i, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 2 {
			t.Fatalf("committed page %d rolled back to %x", i, buf[0])
		}
	}
}

func TestAtomicWriterAbort(t *testing.T) {
	dev, task := testDev(t, 128)
	buf := make([]byte, dev.PageSize())
	buf[0] = 9
	if err := dev.WritePage(task, 0, buf); err != nil {
		t.Fatal(err)
	}
	w, _ := NewAtomicWriter(dev, 500, 4)
	buf[0] = 7
	if err := w.Stage(task, 0, buf); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if n, err := w.Commit(task); err != nil || n != 0 {
		t.Fatalf("commit after abort: n=%d err=%v", n, err)
	}
	if err := dev.ReadPage(task, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatal("abort leaked staged data")
	}
}

func TestAtomicWriterLimits(t *testing.T) {
	dev, _ := testDev(t, 128)
	if _, err := NewAtomicWriter(dev, 0, 0); err == nil {
		t.Fatal("empty scratch accepted")
	}
	if _, err := NewAtomicWriter(dev, 0, uint32(dev.MaxShareBatch()+1)); err == nil {
		t.Fatal("oversized scratch accepted")
	}
	w, _ := NewAtomicWriter(dev, 500, 1)
	task := sim.NewSoloTask("t")
	buf := make([]byte, dev.PageSize())
	if err := w.Stage(task, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := w.Stage(task, 1, buf); err == nil {
		t.Fatal("scratch overflow accepted")
	}
}

func TestCopyFileZeroCopy(t *testing.T) {
	dev, task := testDev(t, 256)
	fs, err := fsim.Format(task, dev, 16)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := fs.Create(task, "orig")
	data := bytes.Repeat([]byte{0xE7}, 40*512+100) // partial tail page
	if _, err := src.WriteAt(task, data, 0); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats().FTL.HostWrites
	dst, err := CopyFile(task, fs, "dup", "orig")
	if err != nil {
		t.Fatal(err)
	}
	writes := dev.Stats().FTL.HostWrites - before
	if writes > 3 {
		t.Fatalf("copy wrote %d pages; want <= 3 (tail only)", writes)
	}
	if dst.Size() != int64(len(data)) {
		t.Fatalf("size = %d", dst.Size())
	}
	got := make([]byte, len(data))
	if _, err := dst.ReadAt(task, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("copy content mismatch")
	}
}
