package ftl

import (
	"errors"
	"fmt"
	"testing"

	"share/internal/nand"
)

// faultFTL builds the standard test device with a spare budget large enough
// to absorb a few injected retirements (the default geometry derives a
// budget of ~2, too tight for fault scenarios).
func faultFTL(t *testing.T, spares int, mut func(*Config)) (*FTL, *nand.Chip) {
	t.Helper()
	return testFTL(t, func(cfg *Config) {
		cfg.SpareBlocks = spares
		if mut != nil {
			mut(cfg)
		}
	})
}

func TestTransientProgramFaultIsRetried(t *testing.T) {
	f, chip := faultFTL(t, 4, nil)
	if err := chip.SetFaultPlan(nand.NewFaultPlan(1).AtProgram(1, nand.FaultProgramTransient)); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, 7, 0xAB)
	if got := mustRead(t, f, 7); got[0] != 0xAB {
		t.Fatalf("lpn 7 = %x after transient fault", got[0])
	}
	st := f.Stats()
	if st.ProgramRetries != 1 {
		t.Fatalf("ProgramRetries = %d, want 1", st.ProgramRetries)
	}
	if st.ProgramFails != 0 || st.RetiredBlocks != 0 {
		t.Fatalf("transient fault escalated: fails=%d retired=%d", st.ProgramFails, st.RetiredBlocks)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPermanentProgramFaultRetiresAndResteers(t *testing.T) {
	f, chip := faultFTL(t, 4, nil)
	// Populate the host block so retirement has live pages to rescue.
	for l := uint32(0); l < 5; l++ {
		mustWrite(t, f, l, byte(l+1))
	}
	if err := chip.SetFaultPlan(nand.NewFaultPlan(1).AtProgram(1, nand.FaultProgramPermanent)); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, 5, 0xCC) // fails, retries into the now-bad page, re-steers
	for l := uint32(0); l < 5; l++ {
		if got := mustRead(t, f, l); got[0] != byte(l+1) {
			t.Fatalf("rescued lpn %d = %x, want %x", l, got[0], l+1)
		}
	}
	if got := mustRead(t, f, 5); got[0] != 0xCC {
		t.Fatalf("re-steered lpn 5 = %x", got[0])
	}
	st := f.Stats()
	if st.ProgramFails != 1 {
		t.Fatalf("ProgramFails = %d, want 1", st.ProgramFails)
	}
	if st.RetiredBlocks != 1 {
		t.Fatalf("RetiredBlocks = %d, want 1", st.RetiredBlocks)
	}
	if st.SpareBlocksLeft != 3 {
		t.Fatalf("SpareBlocksLeft = %d, want 3", st.SpareBlocksLeft)
	}
	if f.ReadOnly() {
		t.Fatal("read-only after a single retirement with spares left")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRetirementSurvivesRecovery(t *testing.T) {
	f, chip := faultFTL(t, 4, nil)
	for l := uint32(0); l < 5; l++ {
		mustWrite(t, f, l, byte(l+1))
	}
	if err := chip.SetFaultPlan(nand.NewFaultPlan(1).AtProgram(1, nand.FaultProgramPermanent)); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, 5, 0xCC)
	if err := chip.SetFaultPlan(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Crash()
	if _, err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	// The chip's persistent bad-block mark must keep the block retired —
	// without recounting it in the stats.
	if st := f.Stats(); st.RetiredBlocks != 1 {
		t.Fatalf("RetiredBlocks = %d after recovery, want 1", st.RetiredBlocks)
	}
	if f.SpareBlocksLeft() != 3 {
		t.Fatalf("SpareBlocksLeft = %d after recovery, want 3", f.SpareBlocksLeft())
	}
	for l := uint32(0); l < 6; l++ {
		want := byte(l + 1)
		if l == 5 {
			want = 0xCC
		}
		if got := mustRead(t, f, l); got[0] != want {
			t.Fatalf("lpn %d = %x after recovery, want %x", l, got[0], want)
		}
	}
	// The retired block must never be written again.
	mustWrite(t, f, 20, 0x77)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEraseFaultRetiresViaGC(t *testing.T) {
	f, chip := faultFTL(t, 4, nil)
	if err := chip.SetFaultPlan(nand.NewFaultPlan(1).AtErase(1, nand.FaultErase)); err != nil {
		t.Fatal(err)
	}
	lastGood := make([]byte, f.Capacity())
	for round := 1; round <= 4; round++ {
		for l := 0; l < f.Capacity(); l++ {
			b := byte(round + l)
			mustWrite(t, f, uint32(l), b)
			lastGood[l] = b
		}
	}
	st := f.Stats()
	if st.EraseFails != 1 {
		t.Fatalf("EraseFails = %d, want 1", st.EraseFails)
	}
	if st.RetiredBlocks == 0 {
		t.Fatal("erase fault did not retire the victim")
	}
	for l := 0; l < f.Capacity(); l++ {
		if got := mustRead(t, f, uint32(l)); got[0] != lastGood[l] {
			t.Fatalf("lpn %d = %x, want %x", l, got[0], lastGood[l])
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUncorrectableReadSurfaces(t *testing.T) {
	f, chip := faultFTL(t, 4, nil)
	mustWrite(t, f, 3, 0x99)
	// The fault must hold through the whole retry budget (first attempt
	// plus readRetryLimit re-reads) to surface as data loss.
	plan := nand.NewFaultPlan(1)
	for n := int64(1); n <= readRetryLimit+1; n++ {
		plan.AtRead(n, nand.FaultReadUncorrectable)
	}
	if err := chip.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.PageSize())
	if _, err := f.Read(3, buf); !errors.Is(err, nand.ErrUncorrectable) {
		t.Fatalf("read error = %v, want ErrUncorrectable", err)
	}
	st := f.Stats()
	if st.UncorrectableReads != 1 {
		t.Fatalf("UncorrectableReads = %d, want 1", st.UncorrectableReads)
	}
	if st.ReadRetries != readRetryLimit {
		t.Fatalf("ReadRetries = %d, want %d", st.ReadRetries, readRetryLimit)
	}
	// A later, clean read still works: the data itself was not destroyed.
	if got := mustRead(t, f, 3); got[0] != 0x99 {
		t.Fatalf("lpn 3 = %x on clean retry", got[0])
	}
}

func TestTransientReadFaultRetriedAndScrubbed(t *testing.T) {
	f, chip := faultFTL(t, 4, nil)
	// Fill past one block so lpn 3's block is closed: scrubbing skips the
	// stream's open append point (it is still being written).
	for l := uint32(0); l < 9; l++ {
		mustWrite(t, f, l, byte(l+1))
	}
	// One scheduled fault: the first attempt fails, the retry succeeds.
	if err := chip.SetFaultPlan(nand.NewFaultPlan(1).AtRead(1, nand.FaultReadUncorrectable)); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, f, 3); got[0] != 4 {
		t.Fatalf("lpn 3 = %x after retried read", got[0])
	}
	st := f.Stats()
	if st.ReadRetries != 1 {
		t.Fatalf("ReadRetries = %d, want 1", st.ReadRetries)
	}
	if st.UncorrectableReads != 0 {
		t.Fatalf("recovered read counted as uncorrectable: %d", st.UncorrectableReads)
	}
	if len(f.scrubQueue) != 1 {
		t.Fatalf("scrub queue length = %d, want 1", len(f.scrubQueue))
	}
	// The next mutating command drains the scrub queue: the suspect
	// block's live pages move to fresh flash and the block is refreshed.
	mustWrite(t, f, 12, 0x66)
	st = f.Stats()
	if st.ScrubbedBlocks != 1 {
		t.Fatalf("ScrubbedBlocks = %d, want 1", st.ScrubbedBlocks)
	}
	if st.ScrubRelocations == 0 {
		t.Fatal("scrub relocated no pages")
	}
	for l := uint32(0); l < 9; l++ {
		if got := mustRead(t, f, l); got[0] != byte(l+1) {
			t.Fatalf("lpn %d = %x after scrub, want %x", l, got[0], l+1)
		}
	}
	if got := mustRead(t, f, 12); got[0] != 0x66 {
		t.Fatalf("lpn 12 = %x after scrub", got[0])
	}
	if st.RetiredBlocks != 0 {
		t.Fatalf("scrub retired a healthy block: %d", st.RetiredBlocks)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectableReadIsTransparent(t *testing.T) {
	f, chip := faultFTL(t, 4, nil)
	mustWrite(t, f, 3, 0x99)
	if err := chip.SetFaultPlan(nand.NewFaultPlan(1).AtRead(1, nand.FaultReadCorrectable)); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, f, 3); got[0] != 0x99 {
		t.Fatalf("lpn 3 = %x through ECC correction", got[0])
	}
	if cs := chip.Stats(); cs.EccCorrected != 1 {
		t.Fatalf("EccCorrected = %d, want 1", cs.EccCorrected)
	}
	if st := f.Stats(); st.UncorrectableReads != 0 {
		t.Fatalf("correctable error miscounted as uncorrectable")
	}
}

func TestFactoryBadBlocksAreAvoided(t *testing.T) {
	chip, err := nand.New(nand.Geometry{PageSize: 512, PagesPerBlock: 8, Blocks: 32}, nand.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	plan := nand.NewFaultPlan(1)
	plan.FactoryBad = []int{3, 17}
	if err := chip.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CheckpointLogPages = 8
	cfg.SpareBlocks = 4
	f, err := New(chip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.RetiredBlocks != 2 {
		t.Fatalf("RetiredBlocks = %d, want 2 factory-bad", st.RetiredBlocks)
	}
	if f.SpareBlocksLeft() != 2 {
		t.Fatalf("SpareBlocksLeft = %d, want 2", f.SpareBlocksLeft())
	}
	for l := 0; l < f.Capacity(); l++ {
		mustWrite(t, f, uint32(l), byte(l))
	}
	for l := 0; l < f.Capacity(); l++ {
		if got := mustRead(t, f, uint32(l)); got[0] != byte(l) {
			t.Fatalf("lpn %d = %x", l, got[0])
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFactoryBadBeyondBudgetRefused(t *testing.T) {
	chip, err := nand.New(nand.Geometry{PageSize: 512, PagesPerBlock: 8, Blocks: 32}, nand.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	plan := nand.NewFaultPlan(1)
	plan.FactoryBad = []int{1, 2, 3}
	if err := chip.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SpareBlocks = 2
	if _, err := New(chip, cfg); err == nil {
		t.Fatal("New accepted more factory-bad blocks than the spare budget")
	}
}

func TestReadOnlyAfterSparesExhausted(t *testing.T) {
	f, chip := faultFTL(t, 1, nil)
	mustWrite(t, f, 0, 0x11)
	// Two permanent program failures on two different blocks: the second
	// retirement exceeds the budget of 1 and degrades the device.
	for i := 0; i < 2; i++ {
		if err := chip.SetFaultPlan(nand.NewFaultPlan(1).AtProgram(1, nand.FaultProgramPermanent)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(1, fill(byte(0x20+i), f.PageSize())); err != nil {
			t.Fatalf("write %d during degradation: %v", i, err)
		}
	}
	if err := chip.SetFaultPlan(nil); err != nil {
		t.Fatal(err)
	}
	if !f.ReadOnly() {
		t.Fatal("device not read-only after exceeding the spare budget")
	}
	st := f.Stats()
	if !st.ReadOnly || st.SpareBlocksLeft != 0 {
		t.Fatalf("stats: ReadOnly=%v SpareBlocksLeft=%d", st.ReadOnly, st.SpareBlocksLeft)
	}
	// Every mutating command is refused...
	if _, err := f.Write(2, fill(0xFF, f.PageSize())); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Write error = %v, want ErrReadOnly", err)
	}
	if _, err := f.Trim(0, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Trim error = %v, want ErrReadOnly", err)
	}
	if _, err := f.Share([]Pair{{Dst: 2, Src: 0, Len: 1}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Share error = %v, want ErrReadOnly", err)
	}
	if _, err := f.WriteAtomic([]AtomicPage{{LPN: 2, Data: fill(1, f.PageSize())}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("WriteAtomic error = %v, want ErrReadOnly", err)
	}
	// ...but every acknowledged write is still readable.
	if got := mustRead(t, f, 0); got[0] != 0x11 {
		t.Fatalf("lpn 0 = %x in read-only mode", got[0])
	}
	if got := mustRead(t, f, 1); got[0] != 0x21 {
		t.Fatalf("lpn 1 = %x in read-only mode", got[0])
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ReadOnlyLatch: unrelated errors pass through untouched; the first
// read-only device error latches, counts one transition and comes back as
// the owner's sentinel, which still matches ErrReadOnly.
func TestReadOnlyLatch(t *testing.T) {
	sentinel := fmt.Errorf("engine: read-only: %w", ErrReadOnly)
	l := NewReadOnlyLatch(sentinel)
	other := errors.New("other")
	if l.Note(nil) != nil || l.Note(other) != other || l.Degraded() {
		t.Fatal("latch reacted to an unrelated error")
	}
	for i := 0; i < 2; i++ {
		if err := l.Note(fmt.Errorf("write page 7: %w", ErrReadOnly)); err != sentinel {
			t.Fatalf("Note = %v, want the sentinel", err)
		}
	}
	if !l.Degraded() || l.ReadOnlyTransitions() != 1 {
		t.Fatalf("degraded=%v transitions=%d, want true and 1", l.Degraded(), l.ReadOnlyTransitions())
	}
	if !errors.Is(sentinel, ErrReadOnly) {
		t.Fatal("sentinel does not wrap ErrReadOnly")
	}
}
