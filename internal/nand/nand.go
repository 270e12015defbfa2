// Package nand models an array of NAND flash memory, the raw medium
// underneath the FTL. It enforces the physical constraints the paper's
// argument rests on: pages are programmed out of place, a page can be
// programmed only once between erases, erase works on whole blocks, and
// MLC program/erase operations are slow and wear the cells out.
//
// The model corresponds to the first-generation OpenSSD's Samsung MLC
// chips: page-sized program/read units grouped into blocks, with a small
// out-of-band (OOB/spare) area per page that the FTL uses to store the
// page's reverse (P2L) mapping and metadata tags.
package nand

import (
	"errors"
	"fmt"
	"math/rand"

	"share/internal/sim"
)

// PageState tracks the lifecycle of one physical page.
type PageState uint8

const (
	// PageFree means the page is erased and may be programmed.
	PageFree PageState = iota
	// PageProgrammed means the page holds data (valid or stale is the
	// FTL's business, not the chip's).
	PageProgrammed
)

// Endurance is the per-block program/erase cycle budget; erasing a block
// past it fails with ErrWornOut and the block must be retired. 0 means
// unlimited (the default for experiments that are not about wear).
//
// Timing holds the chip's operation latencies. Defaults follow mid-2010s
// MLC NAND plus a SATA-II transfer cost per 4 KiB page.
type Timing struct {
	ReadPage sim.Duration // cell-to-register read
	Program  sim.Duration // register-to-cell program
	Erase    sim.Duration // whole-block erase
	Transfer sim.Duration // bus transfer of one page
}

// DefaultTiming returns MLC-class latencies.
func DefaultTiming() Timing {
	return Timing{
		ReadPage: 90 * sim.Microsecond,
		Program:  1300 * sim.Microsecond,
		Erase:    3800 * sim.Microsecond,
		Transfer: 15 * sim.Microsecond,
	}
}

// Geometry describes the chip array layout.
type Geometry struct {
	PageSize      int // bytes per page (the FTL mapping unit)
	PagesPerBlock int
	Blocks        int
	// Endurance is the per-block erase budget; a block whose erase count
	// reaches it wears out (ErrWornOut) and must be retired by the FTL.
	// 0 disables wear-out.
	Endurance int64

	// Channels and DiesPerChannel describe the array's internal
	// parallelism, as on the multi-channel/multi-way OpenSSD prototype:
	// dies operate independently, while dies on one channel share its bus
	// for page transfers. Blocks are striped round-robin across dies
	// (block b lives on die b mod NumDies), so consecutive block numbers
	// land on different dies. Both zero means the parallelism is
	// unspecified and the device layer falls back to its geometry-blind
	// lump-sum queue; setting either field (even to 1) opts into real
	// per-die scheduling.
	Channels       int
	DiesPerChannel int
}

// TotalPages returns the number of physical pages.
func (g Geometry) TotalPages() int { return g.Blocks * g.PagesPerBlock }

// TotalBytes returns the raw capacity in bytes.
func (g Geometry) TotalBytes() int64 {
	return int64(g.Blocks) * int64(g.PagesPerBlock) * int64(g.PageSize)
}

// ParallelismSpecified reports whether the geometry names explicit
// channel/die counts (opting into per-die scheduling at the device layer).
func (g Geometry) ParallelismSpecified() bool {
	return g.Channels > 0 || g.DiesPerChannel > 0
}

// NumChannels returns the channel count, treating unspecified as 1.
func (g Geometry) NumChannels() int {
	if g.Channels > 0 {
		return g.Channels
	}
	return 1
}

// NumDies returns the total die count across all channels (>= 1).
func (g Geometry) NumDies() int {
	d := g.DiesPerChannel
	if d < 1 {
		d = 1
	}
	return g.NumChannels() * d
}

// DieOfBlock returns the die holding a block. Blocks are striped
// round-robin across dies so sequential block allocation spreads load.
func (g Geometry) DieOfBlock(block int) int { return block % g.NumDies() }

// DieOfPPN returns the die holding a physical page.
func (g Geometry) DieOfPPN(ppn uint32) int {
	return g.DieOfBlock(int(ppn) / g.PagesPerBlock)
}

// ChannelOfDie returns the channel whose bus serves the given die. Dies
// are numbered channel-major modulo: die d hangs off channel d mod
// NumChannels, so consecutive dies — and therefore consecutive blocks —
// alternate channels as well as dies.
func (g Geometry) ChannelOfDie(die int) int { return die % g.NumChannels() }

// Address decomposes a physical page number into its full hardware
// coordinates: (channel, die, block, page-within-block).
func (g Geometry) Address(ppn uint32) (channel, die, block, page int) {
	block = int(ppn) / g.PagesPerBlock
	page = int(ppn) % g.PagesPerBlock
	die = g.DieOfBlock(block)
	channel = g.ChannelOfDie(die)
	return channel, die, block, page
}

// OOB is the out-of-band (spare) area the FTL stores with every programmed
// page. LPN is the logical page the data was written for (the primary
// reverse mapping); Tag distinguishes data pages from FTL metadata; Stream
// records which write stream programmed the page — the host stream index
// for host data, or one of the internal sentinels — so recovery can hand
// every partially-filled block back to its exact owner stream.
type OOB struct {
	LPN    uint32
	Tag    uint8
	Stream uint8  // writing stream: host index, or StreamGC/StreamMeta
	Seq    uint64 // monotonically increasing program sequence number
}

// Tags for OOB.Tag.
const (
	TagData    uint8 = 0 // host data page
	TagMapBase uint8 = 1 // FTL mapping-table snapshot page
	TagMapLog  uint8 = 2 // FTL mapping delta-log page
)

// Internal stream sentinels for OOB.Stream. Host stream indices are dense
// from 0, so the top of the byte range is reserved for the FTL's own
// streams (GC copyback destinations and mapping metadata).
const (
	StreamGC   uint8 = 0xFE // GC/scrub/retirement relocation stream
	StreamMeta uint8 = 0xFF // FTL mapping snapshot / delta-log stream
)

// InvalidLPN marks OOB entries that carry no logical address.
const InvalidLPN = ^uint32(0)

var (
	// ErrProgrammed is returned when programming a page that was not erased.
	ErrProgrammed = errors.New("nand: program on non-free page")
	// ErrFreeRead is returned when reading an erased page.
	ErrFreeRead = errors.New("nand: read of erased page")
	// ErrBounds is returned for out-of-range page or block numbers.
	ErrBounds = errors.New("nand: address out of range")
	// ErrWornOut is returned when erasing a block past its endurance; the
	// block is unreliable and must be retired.
	ErrWornOut = errors.New("nand: block worn out")
)

type page struct {
	state PageState
	data  []byte // nil until programmed; freed on erase
	oob   OOB
	bad   bool // permanent program failure; unusable until block retirement
}

// Chip is a simulated NAND array. It is not safe for concurrent use; the
// FTL serializes access (as the single-core Barefoot controller does).
type Chip struct {
	geo    Geometry
	timing Timing
	pages  []page
	seq    uint64
	dies   int // geo.NumDies(), cached off the hot paths

	// bufFree is the page-buffer free list: EraseBlock returns the erased
	// pages' data buffers here and Program pops one instead of allocating,
	// so a steady program/erase workload recycles a bounded set of buffers
	// instead of churning the garbage collector. Every pooled buffer is
	// fully overwritten (copy of exactly one page) before it becomes
	// visible, so stale contents can never leak into a read.
	bufFree [][]byte

	// shared marks pages whose data buffer is aliased by a Clone (in both
	// the parent and the clone): erasing such a page must drop the buffer
	// for the garbage collector instead of recycling it through bufFree,
	// or a later Program would overwrite payload the other chip still
	// reads. nil until the chip has been on either side of a Clone.
	shared []bool

	// Fault injection (see fault.go).
	blockBad  []bool
	plan      *FaultPlan
	faultRng  *rand.Rand
	planProg  int64
	planErase int64
	planRead  int64
	cutArmed  bool
	cutAt     int64

	// Endogenous media aging (see media.go). All nil/zero until a
	// MediaModel is installed.
	media       *MediaModel
	mediaClock  sim.Duration
	readDisturb []int64 // per block: reads since last erase
	erasedAt    []int64 // per block: media-clock time of last erase
	pageWeak    []int64 // per page: seeded static weakness
	blockWeak   []int64 // per block: max pageWeak of its pages

	// Statistics.
	reads          int64
	programs       int64
	erases         int64
	programFails   int64
	eraseFails     int64
	eccCorrected   int64
	readFails      int64
	badBlocks      int64
	retryReads     int64
	softReads      int64
	mediaHardReads int64
	eraseCount     []int64  // per block
	dieOps         []DieOps // per die: operations that occupied it
}

// DieOps counts the operations that occupied one die, including failed
// attempts (a failing program or erase still holds the die for its full
// service time).
type DieOps struct {
	Reads    int64
	Programs int64
	Erases   int64
}

// New returns a fully erased chip with the given geometry and timing.
func New(geo Geometry, timing Timing) (*Chip, error) {
	if geo.PageSize <= 0 || geo.PagesPerBlock <= 0 || geo.Blocks <= 0 {
		return nil, fmt.Errorf("nand: invalid geometry %+v", geo)
	}
	if geo.Channels < 0 || geo.DiesPerChannel < 0 {
		return nil, fmt.Errorf("nand: invalid geometry %+v", geo)
	}
	if geo.NumDies() > geo.Blocks {
		return nil, fmt.Errorf("nand: geometry has more dies (%d) than blocks (%d)", geo.NumDies(), geo.Blocks)
	}
	return &Chip{
		geo:        geo,
		timing:     timing,
		pages:      make([]page, geo.TotalPages()),
		dies:       geo.NumDies(),
		blockBad:   make([]bool, geo.Blocks),
		eraseCount: make([]int64, geo.Blocks),
		dieOps:     make([]DieOps, geo.NumDies()),
	}, nil
}

// Geometry returns the chip layout.
func (c *Chip) Geometry() Geometry { return c.geo }

// Timing returns the chip latencies.
func (c *Chip) Timing() Timing { return c.timing }

// BlockOf returns the block containing physical page ppn.
func (c *Chip) BlockOf(ppn uint32) int { return int(ppn) / c.geo.PagesPerBlock }

// dieOfPPN is Geometry.DieOfPPN against the cached die count — the
// geometry method re-derives NumDies on every call, which shows up on the
// per-operation accounting paths.
func (c *Chip) dieOfPPN(ppn uint32) int { return (int(ppn) / c.geo.PagesPerBlock) % c.dies }

// PageIndexInBlock returns ppn's offset within its block.
func (c *Chip) PageIndexInBlock(ppn uint32) int { return int(ppn) % c.geo.PagesPerBlock }

// State returns the state of physical page ppn.
func (c *Chip) State(ppn uint32) PageState {
	return c.pages[ppn].state
}

// Program writes data and oob into physical page ppn. The page must be
// erased and data must be exactly one page. The stored copy is private to
// the chip. Returns the operation's service time.
func (c *Chip) Program(ppn uint32, data []byte, oob OOB) (sim.Duration, error) {
	if int(ppn) >= len(c.pages) {
		return 0, fmt.Errorf("%w: ppn %d", ErrBounds, ppn)
	}
	p := &c.pages[ppn]
	if p.state != PageFree {
		return 0, fmt.Errorf("%w: ppn %d", ErrProgrammed, ppn)
	}
	if len(data) != c.geo.PageSize {
		return 0, fmt.Errorf("nand: program size %d != page size %d", len(data), c.geo.PageSize)
	}
	if c.powerLost() {
		return 0, fmt.Errorf("%w: program ppn %d", ErrPowerCut, ppn)
	}
	cost := c.timing.Transfer + c.timing.Program
	c.tickMedia(cost)
	c.dieOps[c.dieOfPPN(ppn)].Programs++
	if p.bad || c.blockBad[c.BlockOf(ppn)] {
		c.programFails++
		return cost, fmt.Errorf("%w: ppn %d (%v)", ErrProgramFail, ppn, ErrBadBlock)
	}
	switch c.nextFault(opProgram) {
	case FaultProgramTransient:
		c.programFails++
		return cost, fmt.Errorf("%w: ppn %d (transient)", ErrProgramFail, ppn)
	case FaultProgramPermanent:
		c.programFails++
		p.bad = true
		c.markBad(c.BlockOf(ppn))
		return cost, fmt.Errorf("%w: ppn %d (permanent)", ErrProgramFail, ppn)
	}
	var buf []byte
	if n := len(c.bufFree); n > 0 {
		buf = c.bufFree[n-1]
		c.bufFree[n-1] = nil
		c.bufFree = c.bufFree[:n-1]
	} else {
		buf = make([]byte, c.geo.PageSize)
	}
	copy(buf, data) // len(data) == PageSize: fully overwrites a recycled buffer
	c.seq++
	oob.Seq = c.seq
	p.state = PageProgrammed
	p.data = buf
	p.oob = oob
	c.programs++
	return c.timing.Transfer + c.timing.Program, nil
}

// Read copies physical page ppn into dst (which must be one page long) and
// returns its OOB and the service time. This is the fast read path: the
// on-the-fly ECC pass corrects up to the media model's FastLimit; pages
// rotted past it fail with ErrUncorrectable and need the stronger (and
// slower) ReadShifted / ReadSoft rungs of the ECC ladder.
func (c *Chip) Read(ppn uint32, dst []byte) (OOB, sim.Duration, error) {
	return c.readAt(ppn, dst, strengthFast)
}

// ReadOOB returns just the OOB of a programmed page. It models the cheap
// spare-area read FTLs use when scanning blocks.
func (c *Chip) ReadOOB(ppn uint32) (OOB, error) {
	if int(ppn) >= len(c.pages) {
		return OOB{}, fmt.Errorf("%w: ppn %d", ErrBounds, ppn)
	}
	p := &c.pages[ppn]
	if p.state != PageProgrammed {
		return OOB{}, fmt.Errorf("%w: ppn %d", ErrFreeRead, ppn)
	}
	return p.oob, nil
}

// EraseBlock erases all pages of the given block and returns the service
// time. Page buffers are released.
func (c *Chip) EraseBlock(block int) (sim.Duration, error) {
	if block < 0 || block >= c.geo.Blocks {
		return 0, fmt.Errorf("%w: block %d", ErrBounds, block)
	}
	if c.powerLost() {
		return 0, fmt.Errorf("%w: erase block %d", ErrPowerCut, block)
	}
	c.tickMedia(c.timing.Erase)
	c.dieOps[block%c.dies].Erases++
	if c.blockBad[block] {
		c.eraseFails++
		return c.timing.Erase, fmt.Errorf("%w: block %d", ErrBadBlock, block)
	}
	if c.geo.Endurance > 0 && c.eraseCount[block] >= c.geo.Endurance {
		return c.timing.Erase, fmt.Errorf("%w: block %d after %d erases", ErrWornOut, block, c.eraseCount[block])
	}
	if c.nextFault(opErase) == FaultErase {
		c.eraseFails++
		c.markBad(block)
		return c.timing.Erase, fmt.Errorf("%w: block %d", ErrEraseFail, block)
	}
	base := block * c.geo.PagesPerBlock
	for i := 0; i < c.geo.PagesPerBlock; i++ {
		p := &c.pages[base+i]
		p.state = PageFree
		if p.data != nil {
			if c.shared != nil && c.shared[base+i] {
				c.shared[base+i] = false // aliased by a clone: drop, don't recycle
			} else {
				c.bufFree = append(c.bufFree, p.data)
			}
			p.data = nil
		}
		p.oob = OOB{}
	}
	c.erases++
	c.eraseCount[block]++
	// Erase restores the cells: accumulated read disturb is gone and the
	// retention clock restarts for whatever is programmed next.
	if c.readDisturb != nil {
		c.readDisturb[block] = 0
		c.erasedAt[block] = c.mediaClock
	}
	return c.timing.Erase, nil
}

// Stats reports raw chip activity.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
	MaxWear  int64 `epoch:"gauge"` // highest per-block erase count
	MinWear  int64 `epoch:"gauge"` // lowest per-block erase count

	ProgramFails int64 // failed program attempts (transient + permanent)
	EraseFails   int64 // failed erase attempts (bad block or injected)
	EccCorrected int64 // reads that needed ECC correction
	ReadFails    int64 // uncorrectable reads
	BadBlocks    int64 `epoch:"gauge"` // blocks factory-bad or failed in service

	// ECC ladder and media-aging counters (zero with the model off; the
	// omitempty tags keep aging-free benchmark reports byte-identical).
	RetryReads     int64 `json:",omitempty"`               // shifted-sense re-read attempts
	SoftReads      int64 `json:",omitempty"`               // soft-decision decode attempts
	MediaHardReads int64 `json:",omitempty"`               // fast reads failed by endogenous aging
	MaxPageRisk    int64 `json:",omitempty" epoch:"gauge"` // worst predicted page risk (1 unit = 1e-9 RBER)
	MeanPageRisk   int64 `json:",omitempty" epoch:"gauge"` // mean per-block worst-page risk
}

// Stats returns a snapshot of the chip's counters.
func (c *Chip) Stats() Stats {
	s := Stats{
		Reads: c.reads, Programs: c.programs, Erases: c.erases,
		ProgramFails: c.programFails, EraseFails: c.eraseFails,
		EccCorrected: c.eccCorrected, ReadFails: c.readFails,
		BadBlocks:  c.badBlocks,
		RetryReads: c.retryReads, SoftReads: c.softReads,
		MediaHardReads: c.mediaHardReads,
	}
	if c.media != nil && c.geo.Blocks > 0 {
		var sum int64
		for b := 0; b < c.geo.Blocks; b++ {
			r := c.BlockRisk(b)
			if r > s.MaxPageRisk {
				s.MaxPageRisk = r
			}
			sum += r
		}
		s.MeanPageRisk = sum / int64(c.geo.Blocks)
	}
	if len(c.eraseCount) > 0 {
		s.MinWear = c.eraseCount[0]
		for _, e := range c.eraseCount {
			if e > s.MaxWear {
				s.MaxWear = e
			}
			if e < s.MinWear {
				s.MinWear = e
			}
		}
	}
	return s
}

// EraseCount returns the erase count of one block.
func (c *Chip) EraseCount(block int) int64 { return c.eraseCount[block] }

// DieOpCounts returns a copy of the per-die operation counters, indexed
// by die number. Failed attempts are included: they occupy the die too.
func (c *Chip) DieOpCounts() []DieOps {
	out := make([]DieOps, len(c.dieOps))
	copy(out, c.dieOps)
	return out
}
