package ftl

import "fmt"

// Stats counts FTL activity. Host* fields count commands from above;
// the GC and metadata fields expose the internal amplification the paper
// measures in Figure 6.
//
// Counter epoch semantics: every field not tagged `epoch:"gauge"` is a
// lifetime-monotonic counter — it only grows, and it is never reset.
// Experiment epochs (e.g. "after aging") are handled one layer up:
// ssd.Device.ResetStats records a baseline and ssd.Device.Stats reports the
// difference, so this struct stays a single source of truth. The diff walks
// the fields: a new int64 or []int64 is a counter unless it carries the
// gauge tag, and any other type must (an ssd test enforces it).
type Stats struct {
	HostReads    int64 // host READ pages
	HostWrites   int64 // host WRITE pages
	Trims        int64 // trimmed pages
	Shares       int64 // SHARE commands
	SharePairs   int64 // SHARE pairs applied by remapping
	AtomicWrites int64 // atomic multi-page write commands (the §6.1 baseline)

	ForcedCopies int64 // SHARE pairs degraded to physical copies (table full)

	// GC and block lifecycle. GCEvents counts victim selections (reclaim
	// passes plus the WearLevelMoves subset); a pass whose erase fails
	// retires the block instead, so:
	//
	//	Erases        = successful block erases from every path
	//	              = GCEvents - (GC passes ending in retirement)
	//	RetiredBlocks = factory-bad + program-failure + erase-failure
	//	                + wear-out blocks removed from service
	//
	// Erases always equals the NAND chip's successful-erase counter over
	// the same window (the FTL is the chip's only client); an ssd test
	// asserts that equivalence.
	GCEvents       int64 // GC victim selections (includes wear-level passes)
	WearLevelMoves int64 // GC passes spent migrating cold blocks
	RetiredBlocks  int64 // bad/worn-out blocks removed from service
	Copybacks      int64 // valid data pages relocated by GC/retirement
	MetaMoves      int64 // live metadata pages relocated by GC/retirement
	Erases         int64 // successful block erases (all paths)
	GCStallNanos   int64 // virtual time commands stalled waiting on GC

	// CrossDieCopybacks counts relocations whose destination landed on a
	// different die than the source. Die-local GC makes this zero by
	// construction; the counter (and its invariant test) exists to catch
	// regressions. Omitted from JSON when zero so single-die reports are
	// unchanged.
	CrossDieCopybacks int64 `json:",omitempty"`

	// Fault handling (bad-block management and media scrubbing).
	ProgramRetries     int64 // program faults absorbed by the retry path
	ProgramFails       int64 // permanent program failures (block retired, data re-steered)
	EraseFails         int64 // non-wear erase failures retired by GC
	ReadRetries        int64 // re-read attempts after an uncorrectable read
	UncorrectableReads int64 // reads lost beyond ECC and retry, surfaced to the host
	ScrubbedBlocks     int64 // suspect blocks refreshed after a retry-recovered read
	ScrubRelocations   int64 // live pages relocated by scrubbing
	SpareBlocksLeft    int64 `epoch:"gauge"` // retirement budget remaining (snapshot, not a counter)
	ReadOnly           bool  `epoch:"gauge"` // device degraded: mutating commands refused

	// ECC-ladder escalation and background patrol (zero without a media
	// model; omitted from JSON so aging-free reports are byte-identical).
	SoftDecodes     int64 `json:",omitempty"` // reads escalated to soft-decision decode
	PatrolScans     int64 `json:",omitempty"` // patrol sweep steps executed
	PatrolRefreshes int64 `json:",omitempty"` // blocks refreshed by patrol before failing
	LostPages       int64 `json:",omitempty"` // data pages relocated as pending sectors (contents lost)
	MetaFaults      int64 `json:",omitempty"` // live metadata pages found unreadable, healed from RAM

	LogPagesWritten int64 // mapping delta-log pages programmed
	MapPagesWritten int64 // mapping snapshot pages programmed
	Checkpoints     int64

	// Per-host-stream telemetry, indexed by stream id. Nil unless the
	// device was configured with explicit host streams (HostStreams > 0),
	// so legacy single-stream reports stay byte-identical. StreamCopybacks
	// bills each GC relocation to the stream that originally wrote the
	// page — segregation quality shows up as skew across these buckets.
	StreamWrites    []int64 `json:",omitempty"` // host pages programmed per stream
	StreamCopybacks []int64 `json:",omitempty"` // GC copybacks per origin stream
}

// Stats returns a snapshot of the counters plus the current health state.
func (f *FTL) Stats() Stats {
	st := f.st
	// The struct copy above shares slice backing arrays with the live
	// counters; snapshot them so callers' baselines stay frozen.
	if f.st.StreamWrites != nil {
		st.StreamWrites = append([]int64(nil), f.st.StreamWrites...)
		st.StreamCopybacks = append([]int64(nil), f.st.StreamCopybacks...)
	}
	st.SpareBlocksLeft = int64(f.SpareBlocksLeft())
	st.ReadOnly = f.readOnly
	return st
}

// GCStallTotal returns the lifetime virtual time commands have stalled
// on garbage collection — a cheap accessor the device layer diffs around
// each command to attribute its GC share.
func (f *FTL) GCStallTotal() int64 { return f.st.GCStallNanos }

// FreeBlocks reports the current size of the free-block pool across all
// dies.
func (f *FTL) FreeBlocks() int {
	n := 0
	for _, free := range f.freeByDie {
		n += len(free)
	}
	return n
}

// FreeBlocksOnDie reports one die's free-block count (inspection/tests).
func (f *FTL) FreeBlocksOnDie(die int) int { return len(f.freeByDie[die]) }

// Dies returns the die count the FTL stripes over.
func (f *FTL) Dies() int { return f.dies }

// ShareTableLoad reports the current occupancy of the bounded
// reverse-mapping table (un-checkpointed SHARE deltas).
func (f *FTL) ShareTableLoad() int { return f.pendingShares }

// SetShareTableCap adjusts the reverse-mapping table budget at run time
// (used by the ablation experiments). 0 means unlimited.
func (f *FTL) SetShareTableCap(cap int) { f.cfg.ShareTableCap = cap }

// CheckInvariants validates internal consistency; tests call it after
// random operation sequences. It returns a non-nil error describing the
// first violation found.
func (f *FTL) CheckInvariants() error {
	refs := make([]uint16, len(f.refs))
	for l := 0; l < f.capacity; l++ {
		if ppn := f.l2p[l]; ppn != InvalidPPN {
			refs[ppn]++
		}
	}
	for p := range refs {
		if refs[p] != f.refs[p] {
			return errInvariant("refcount", p, int(f.refs[p]), int(refs[p]))
		}
	}
	valid := make([]int, f.geo.Blocks)
	for p, r := range refs {
		if r > 0 {
			valid[f.chip.BlockOf(uint32(p))]++
		}
	}
	for p := range f.metaLive {
		valid[f.chip.BlockOf(p)]++
	}
	for b := range valid {
		if valid[b] != f.blockValid[b] {
			return errInvariant("blockValid", b, f.blockValid[b], valid[b])
		}
	}
	for l := 0; l < f.capacity; l++ {
		ppn := f.l2p[l]
		if ppn == InvalidPPN {
			continue
		}
		oob, err := f.chip.ReadOOB(ppn)
		if err != nil {
			return fmt.Errorf("ftl: lpn %d maps to unreadable ppn %d: %w", l, ppn, err)
		}
		if oob.Tag != 0 {
			return fmt.Errorf("ftl: lpn %d maps to metadata page %d (tag %d)", l, ppn, oob.Tag)
		}
	}
	return nil
}

func errInvariant(what string, where, got, want int) error {
	return fmt.Errorf("ftl: invariant %s violated at %d: got %d want %d", what, where, got, want)
}
