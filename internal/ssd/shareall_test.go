package ssd

import (
	"reflect"
	"testing"

	"share/internal/ftl"
	"share/internal/nand"
	"share/internal/sim"
)

// shareDevice is large enough to hold a few atomic batches of sources.
func shareDevice(t *testing.T, blocks int) (*Device, *sim.Task) {
	t.Helper()
	cfg := DefaultConfig(blocks)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 16
	dev, err := New("dev", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev, sim.NewSoloTask("t")
}

// fillSources writes n pages at src.. whose first byte is the page index.
func fillSources(t *testing.T, dev *Device, task *sim.Task, src uint32, n int) {
	t.Helper()
	buf := make([]byte, dev.PageSize())
	for i := 0; i < n; i++ {
		buf[0] = byte(i)
		if err := dev.WritePage(task, src+uint32(i), buf); err != nil {
			t.Fatal(err)
		}
	}
}

func checkShared(t *testing.T, dev *Device, task *sim.Task, dst uint32, n int) {
	t.Helper()
	got := make([]byte, dev.PageSize())
	for i := 0; i < n; i++ {
		if err := dev.ReadPage(task, dst+uint32(i), got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("dst page %d = %x", i, got[0])
		}
	}
}

func TestShareAllSplitsBatches(t *testing.T) {
	dev, task := shareDevice(t, 128)
	n := dev.MaxShareBatch()*2 + 7
	fillSources(t, dev, task, 1000, n)
	var pairs []Pair
	for i := 0; i < n; i++ {
		pairs = append(pairs, Pair{Dst: uint32(i), Src: uint32(1000 + i), Len: 1})
	}
	if err := dev.ShareAll(task, pairs); err != nil {
		t.Fatal(err)
	}
	checkShared(t, dev, task, 0, n)
	if cmds := dev.Stats().FTL.Shares; cmds != 3 {
		t.Fatalf("expected 3 commands, got %d", cmds)
	}
}

// A pair that does not fit the open command starts the next one whole: no
// pair narrower than the atomic limit is ever split across two commands.
func TestShareAllNeverTearsAPair(t *testing.T) {
	dev, task := shareDevice(t, 128)
	max := dev.MaxShareBatch()
	width := uint32(max/2 + 1) // two of these cannot share a command
	fillSources(t, dev, task, 1000, int(3*width))
	pairs := []Pair{
		{Dst: 0, Src: 1000, Len: width},
		{Dst: width, Src: 1000 + width, Len: width},
		{Dst: 2 * width, Src: 1000 + 2*width, Len: width},
	}
	if err := dev.ShareAll(task, pairs); err != nil {
		t.Fatal(err)
	}
	checkShared(t, dev, task, 0, int(3*width))
	st := dev.Stats().FTL
	if st.Shares != 3 || st.SharePairs != 3 {
		t.Fatalf("commands=%d pairs=%d, want 3 whole pairs in 3 commands", st.Shares, st.SharePairs)
	}
}

func TestShareAllOversizedRangedPair(t *testing.T) {
	dev, task := shareDevice(t, 256)
	n := dev.MaxShareBatch() + 10
	fillSources(t, dev, task, 2000, n)
	if err := dev.ShareAll(task, []Pair{{Dst: 0, Src: 2000, Len: uint32(n)}}); err != nil {
		t.Fatal(err)
	}
	checkShared(t, dev, task, 0, n)
	if cmds := dev.Stats().FTL.Shares; cmds != 2 {
		t.Fatalf("expected the oversized pair alone in 2 commands, got %d", cmds)
	}
}

func TestShareAllRejectsZeroLen(t *testing.T) {
	dev, task := shareDevice(t, 128)
	if err := dev.ShareAll(task, []Pair{{Dst: 0, Src: 1, Len: 0}}); err == nil {
		t.Fatal("zero-length pair accepted")
	}
}

// TestStatsFieldsClassified keeps the structural epoch diff total: a field
// added to ftl.Stats or nand.Stats is a counter only if Stats.sub knows how
// to difference its type; anything else must be declared a gauge.
func TestStatsFieldsClassified(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(ftl.Stats{}), reflect.TypeOf(nand.Stats{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Tag.Get("epoch") == "gauge" {
				continue
			}
			if f.Type != reflect.TypeOf(int64(0)) && f.Type != reflect.TypeOf([]int64(nil)) {
				t.Errorf("%s.%s (%s) is neither int64, []int64 nor tagged `epoch:\"gauge\"`", typ, f.Name, f.Type)
			}
		}
	}
}

// The gauges named in the Stats doc comment pass through the diff; a
// counter beside them does not.
func TestStatsSubPassesGaugesThrough(t *testing.T) {
	cur := Stats{
		FTL:  ftl.Stats{HostWrites: 10, SpareBlocksLeft: 3, ReadOnly: true, StreamWrites: []int64{5, 7}},
		Chip: nand.Stats{Programs: 20, MaxWear: 9, MinWear: 2, BadBlocks: 1, MaxPageRisk: 4, MeanPageRisk: 3},
	}
	base := Stats{
		FTL:  ftl.Stats{HostWrites: 4, SpareBlocksLeft: 8, StreamWrites: []int64{1, 2}},
		Chip: nand.Stats{Programs: 5, MaxWear: 6, MinWear: 1, BadBlocks: 1, MaxPageRisk: 2, MeanPageRisk: 1},
	}
	got := cur.sub(base)
	want := Stats{
		FTL:  ftl.Stats{HostWrites: 6, SpareBlocksLeft: 3, ReadOnly: true, StreamWrites: []int64{4, 5}},
		Chip: nand.Stats{Programs: 15, MaxWear: 9, MinWear: 2, BadBlocks: 1, MaxPageRisk: 4, MeanPageRisk: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sub = %+v\nwant  %+v", got, want)
	}
	if cur.FTL.StreamWrites[0] != 5 {
		t.Fatal("sub mutated the current snapshot's slice")
	}
}
