package fsim

import (
	"bytes"
	"fmt"
	"testing"

	"share/internal/sim"
	"share/internal/ssd"
)

// stageRig is a fresh file system with a 16-page home file and a stage
// area of a given size, both fully allocated.
type stageRig struct {
	dev         *ssd.Device
	task        *sim.Task
	home, stage *File
}

func withStage(t *testing.T, stageBytes int64, test func(r stageRig)) {
	t.Helper()
	fs, dev, task := testFS(t, 64)
	home, err := fs.Create(task, "home")
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Allocate(task, 0, 16*512); err != nil {
		t.Fatal(err)
	}
	stage, err := fs.Create(task, "stage")
	if err != nil {
		t.Fatal(err)
	}
	if err := stage.Allocate(task, 0, stageBytes); err != nil {
		t.Fatal(err)
	}
	test(stageRig{dev: dev, task: task, home: home, stage: stage})
}

// images returns n distinct one-page images bound for scattered homes
// (1, 3, 5, ...), so every page is its own share pair.
func images(n int) []PageImage {
	pages := make([]PageImage, n)
	for i := range pages {
		pages[i] = PageImage{PageNo: uint32(2*i + 1), Data: bytes.Repeat([]byte{byte(0xA0 + i)}, 512)}
	}
	return pages
}

func TestStageShareSlotBoundary(t *testing.T) {
	for _, tc := range []struct{ pages, loads int }{{3, 1}, {4, 1}, {5, 2}} {
		t.Run(fmt.Sprintf("%d-pages", tc.pages), func(t *testing.T) {
			withStage(t, 4*512, func(r stageRig) {
				pages := images(tc.pages)
				before := r.dev.Stats().FTL
				if err := r.home.StageShare(r.task, r.stage, pages); err != nil {
					t.Fatal(err)
				}
				after := r.dev.Stats().FTL
				if got := after.Shares - before.Shares; got != int64(tc.loads) {
					t.Fatalf("%d SHARE commands, want one per stage load (%d)", got, tc.loads)
				}
				if got := after.SharePairs - before.SharePairs; got != int64(tc.pages) {
					t.Fatalf("%d share pairs, want %d", got, tc.pages)
				}
				got := make([]byte, 512)
				for _, pg := range pages {
					if _, err := r.home.ReadAt(r.task, got, int64(pg.PageNo)*512); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, pg.Data) {
						t.Fatalf("home page %d reads %#x, want %#x", pg.PageNo, got[0], pg.Data[0])
					}
				}
			})
		})
	}
}

func TestStageShareRejectsStageSmallerThanAPage(t *testing.T) {
	withStage(t, 256, func(r stageRig) {
		before := r.dev.Stats().FTL
		if err := r.home.StageShare(r.task, r.stage, images(1)); err == nil {
			t.Fatal("a 256-byte stage area accepted a 512-byte page")
		}
		after := r.dev.Stats().FTL
		if after.HostWrites != before.HostWrites || after.Shares != before.Shares {
			t.Fatalf("rejected batch reached the device: %d writes, %d shares",
				after.HostWrites-before.HostWrites, after.Shares-before.Shares)
		}
	})
}
