package share_test

import (
	"bytes"
	"errors"
	"testing"

	"share"
)

func TestOpenDeviceDefaults(t *testing.T) {
	dev, err := share.OpenDevice(share.DefaultConfig(128))
	if err != nil {
		t.Fatal(err)
	}
	if dev.PageSize() != 4096 {
		t.Fatalf("page size = %d", dev.PageSize())
	}
	if dev.Capacity() <= 0 || dev.MaxShareBatch() <= 0 {
		t.Fatal("bad capacity or batch limit")
	}
}

func TestOpenDeviceOptions(t *testing.T) {
	cfg := share.DefaultConfig(128)
	cfg.Geometry.PageSize, cfg.Geometry.PagesPerBlock = 512, 16
	cfg.FTL.OverProvision, cfg.FTL.ShareTableCap = 0.25, 250
	dev, err := share.OpenDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dev.PageSize() != 512 {
		t.Fatalf("page size = %d", dev.PageSize())
	}
	// 25% over-provisioning: capacity well below raw.
	if dev.Capacity() >= 128*16*80/100 {
		t.Fatalf("over-provisioning not applied: %d", dev.Capacity())
	}
}

func TestPublicAPISmoke(t *testing.T) {
	cfg := share.DefaultConfig(128)
	cfg.Geometry.PageSize, cfg.Geometry.PagesPerBlock = 512, 16
	dev, err := share.OpenDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := share.NewTask("smoke")
	a := bytes.Repeat([]byte{0xAA}, 512)
	b := bytes.Repeat([]byte{0xBB}, 512)
	if err := dev.WritePage(task, 0, a); err != nil {
		t.Fatal(err)
	}
	if err := dev.WritePage(task, 1, b); err != nil {
		t.Fatal(err)
	}
	if err := dev.Share(task, []share.Pair{{Dst: 0, Src: 1, Len: 1}}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := dev.ReadPage(task, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("share did not take effect through the public API")
	}
	dev.Crash()
	if err := dev.Recover(task); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadPage(task, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("share lost across crash through the public API")
	}
	// One command wider than the atomic limit is refused whole.
	n := uint32(dev.MaxShareBatch() + 1)
	if err := dev.Share(task, []share.Pair{{Dst: 0, Src: n, Len: n}}); !errors.Is(err, share.ErrBatch) {
		t.Fatalf("oversized share = %v, want ErrBatch", err)
	}
	if share.DefaultTiming().Program <= 0 {
		t.Fatal("bad default timing")
	}
}
