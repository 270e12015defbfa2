// Package ssd is the device front-end of the simulated flash drive: it
// owns the NAND chip and FTL, serializes commands the way a single SATA
// link does, charges virtual time to the issuing task through a sim
// Resource, and exposes the host-visible statistics the paper reports
// (host page writes, GC events, copyback pages).
package ssd

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"

	"share/internal/ftl"
	"share/internal/metrics"
	"share/internal/nand"
	"share/internal/randfill"
	"share/internal/sim"
)

// Pair re-exports the FTL SHARE pair for host code.
type Pair = ftl.Pair

// Config assembles a device.
type Config struct {
	Geometry nand.Geometry
	Timing   nand.Timing
	FTL      ftl.Config
	// QueueDepth is the number of commands the device can service
	// concurrently when the geometry does not specify channel/die counts:
	// a geometry-blind k-server queue approximating internal parallelism.
	// 1 models the single-threaded OpenSSD prototype. When the geometry
	// sets Channels/DiesPerChannel the device schedules each command's
	// NAND operations onto real per-die servers and per-channel bus slots
	// instead, and QueueDepth does not gate admission — concurrency is
	// whatever the host offers (NCQ-style), bounded by the array itself.
	QueueDepth int
	// Fault optionally injects NAND failures (factory-bad blocks,
	// scheduled or seeded program/erase/read faults). Installed before the
	// FTL formats the chip, so factory marks are honored from the start.
	Fault *nand.FaultPlan
	// Media optionally installs an endogenous aging model (read disturb,
	// retention, wear — see nand.MediaModel): the device then degrades
	// with its own access pattern and the FTL's ECC ladder and patrol
	// scrubber have real work to do. Nil keeps media perfect, which also
	// keeps aging-free experiment output byte-identical.
	Media *nand.MediaModel
}

// DefaultConfig returns a small OpenSSD-like device: 4 KiB pages, 128
// pages per block. Capacity is set by Blocks; callers size it per
// experiment.
func DefaultConfig(blocks int) Config {
	return Config{
		Geometry: nand.Geometry{PageSize: 4096, PagesPerBlock: 128, Blocks: blocks},
		Timing:   nand.DefaultTiming(),
		FTL:      ftl.DefaultConfig(),
	}
}

// Admission gates command entry ahead of the device queue, e.g. for
// per-tenant fair-share scheduling (internal/qos). Admit may block the
// task (in virtual or real time) until its tenant is within its share;
// Done reports the service time the command consumed so the controller
// can bill it. Implementations must be safe for concurrent submitters.
type Admission interface {
	Admit(t *sim.Task, tenant string)
	Done(t *sim.Task, tenant string, svc sim.Duration)
}

// Device is a simulated SHARE-capable SSD.
//
// Concurrency: Device.mu serializes FTL/chip work (the firmware is
// single-threaded), while the virtual-time cost of each command is paid
// outside the lock on the sim resource servers, which carry their own
// internal locks — so multiple solo-task goroutines may submit commands
// concurrently, overlapping on distinct dies exactly like NCQ traffic.
type Device struct {
	mu   sync.Mutex
	chip *nand.Chip
	ftl  *ftl.FTL
	res  *sim.MultiResource
	cfg  Config
	rec  *metrics.Recorder
	adm  Admission // optional per-tenant admission gate; set before serving
	base Stats     // counter baseline recorded by ResetStats (epoch start)

	// Per-die scheduling state, nil/absent on geometry-blind devices.
	// Each die is a single-server resource (one NAND operation at a time);
	// each channel is a single-server bus shared by its dies for page
	// transfers. Commands replay their FTL cost plans onto these, so die
	// overlap — not a fixed queue depth — sets the device's concurrency.
	dieRes       []*sim.Resource
	chanRes      []*sim.Resource
	busOfDie     []*sim.Resource // die -> its channel's bus, cached for replay
	dieBusyBase  []int64         // busy-time baselines captured by ResetStats
	chanBusyBase []int64

	// planPool recycles cost-plan buffers between serve and the FTL: each
	// command hands a drained buffer back to TakeCostPlan while taking the
	// freshly recorded one, so steady-state recording never allocates.
	// A sync.Pool (rather than a single field) keeps concurrent solo-task
	// submitters race-free without extending d.mu over the replay.
	planPool sync.Pool
}

// planBuf boxes a cost-plan slice for planPool (a pointer target keeps
// Put/Get allocation-free).
type planBuf struct{ ops []ftl.OpCost }

// New builds a device from cfg.
func New(name string, cfg Config) (*Device, error) {
	if cfg.Geometry.ParallelismSpecified() {
		// Normalize so Channels=4 alone means 4×1 and DiesPerChannel=2
		// alone means 1×2.
		if cfg.Geometry.Channels < 1 {
			cfg.Geometry.Channels = 1
		}
		if cfg.Geometry.DiesPerChannel < 1 {
			cfg.Geometry.DiesPerChannel = 1
		}
	}
	chip, err := nand.New(cfg.Geometry, cfg.Timing)
	if err != nil {
		return nil, err
	}
	if cfg.Fault != nil {
		if err := chip.SetFaultPlan(cfg.Fault); err != nil {
			return nil, err
		}
	}
	if cfg.Media != nil {
		if err := chip.SetMediaModel(cfg.Media); err != nil {
			return nil, err
		}
	}
	f, err := ftl.New(chip, cfg.FTL)
	if err != nil {
		return nil, err
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	rec := metrics.NewRecorder(metrics.DefaultTraceCap)
	f.SetEventSink(rec.FTLEvent)
	d := &Device{chip: chip, ftl: f, res: sim.NewMultiResource(name, cfg.QueueDepth), cfg: cfg, rec: rec}
	if cfg.Geometry.ParallelismSpecified() {
		f.EnableCostPlan()
		dies := cfg.Geometry.NumDies()
		d.dieRes = make([]*sim.Resource, dies)
		for i := range d.dieRes {
			d.dieRes[i] = sim.NewResource(fmt.Sprintf("%s/die%d", name, i))
		}
		d.chanRes = make([]*sim.Resource, cfg.Geometry.NumChannels())
		for i := range d.chanRes {
			d.chanRes[i] = sim.NewResource(fmt.Sprintf("%s/ch%d", name, i))
		}
		d.busOfDie = make([]*sim.Resource, dies)
		for i := range d.busOfDie {
			d.busOfDie[i] = d.chanRes[cfg.Geometry.ChannelOfDie(i)]
		}
		d.planPool.New = func() any { return &planBuf{} }
		d.dieBusyBase = make([]int64, dies)
		d.chanBusyBase = make([]int64, len(d.chanRes))
		rec.SetDies(dies)
	}
	return d, nil
}

// PageSize returns the device mapping unit in bytes.
func (d *Device) PageSize() int { return d.cfg.Geometry.PageSize }

// Capacity returns the number of logical pages exported to the host.
func (d *Device) Capacity() int { return d.ftl.Capacity() }

// CapacityBytes returns the logical capacity in bytes.
func (d *Device) CapacityBytes() int64 {
	return int64(d.ftl.Capacity()) * int64(d.cfg.Geometry.PageSize)
}

// MaxShareBatch returns the largest atomically applied SHARE batch (in
// mapping units).
func (d *Device) MaxShareBatch() int { return d.ftl.MaxShareBatch() }

// serve runs op under the device lock and charges its service time to t.
// Geometry-blind devices push the whole lump sum through the k-server
// queue; die-scheduled devices replay the command's cost plan onto the
// per-die and per-channel resources, so only operations contending for
// the same die or bus serialize. The completed command — its total
// latency (service plus queueing) and the slice of its service time that
// was a GC stall — is recorded in the device's metrics recorder.
func (d *Device) serve(t *sim.Task, c metrics.Cmd, op func() (sim.Duration, error)) error {
	if d.adm != nil {
		d.adm.Admit(t, t.Tenant())
	}
	d.mu.Lock()
	stallBefore := d.ftl.GCStallTotal()
	svc, err := op()
	stall := d.ftl.GCStallTotal() - stallBefore
	var pb *planBuf
	if d.dieRes != nil {
		// Swap a drained buffer in for the freshly recorded plan; after the
		// replay the plan goes back to the pool for a later command. The
		// exchange happens under d.mu — only one command records at a time.
		pb = d.planPool.Get().(*planBuf)
		pb.ops = d.ftl.TakeCostPlan(pb.ops)
	}
	d.mu.Unlock()
	var lat sim.Duration
	if d.dieRes == nil {
		lat = d.res.Use(t, svc)
	} else {
		lat = d.schedule(t, svc, pb.ops)
		d.planPool.Put(pb)
	}
	if d.adm != nil {
		d.adm.Done(t, t.Tenant(), svc)
	}
	d.rec.Observe(c, lat, stall)
	return err
}

// SetAdmission installs (or, with nil, removes) a per-tenant admission
// gate ahead of the device queue. Install it before concurrent submitters
// start; the field itself is not lock-protected.
func (d *Device) SetAdmission(a Admission) { d.adm = a }

// schedule replays one command's cost plan in issue order: firmware time
// (the service-time residue no NAND operation accounts for) advances the
// task alone, reads occupy die then channel, programs channel then die,
// erases the die only. Queueing behind a busy die is attributed to that
// die in the recorder. Returns the command's total latency.
func (d *Device) schedule(t *sim.Task, svc sim.Duration, plan []ftl.OpCost) sim.Duration {
	arrival := t.Now()
	var planned sim.Duration
	for i := range plan {
		planned += plan[i].Bus + plan[i].Cell
	}
	if fw := svc - planned; fw > 0 {
		// Firmware/interface time (command overhead, OOB boot scans) is
		// CPU-side work that occupies no die or bus.
		t.Advance(fw)
	}
	for i := range plan {
		op := &plan[i]
		bus := d.busOfDie[op.Die]
		switch op.Kind {
		case ftl.OpRead:
			d.useDie(t, op.Die, op.Cell)
			if op.Bus > 0 {
				bus.Use(t, op.Bus)
			}
		case ftl.OpProgram:
			if op.Bus > 0 {
				bus.Use(t, op.Bus)
			}
			d.useDie(t, op.Die, op.Cell)
		case ftl.OpErase:
			d.useDie(t, op.Die, op.Cell)
		}
	}
	return t.Now() - arrival
}

// useDie occupies one die for dur, charging any queueing delay to the
// die's stall attribution.
func (d *Device) useDie(t *sim.Task, die int, dur sim.Duration) {
	if dur <= 0 {
		return
	}
	lat := d.dieRes[die].Use(t, dur)
	if wait := lat - dur; wait > 0 {
		d.rec.ObserveDieWait(die, wait)
	}
}

// ReadPage reads logical page lpn into dst.
func (d *Device) ReadPage(t *sim.Task, lpn uint32, dst []byte) error {
	return d.serve(t, metrics.CmdRead, func() (sim.Duration, error) { return d.ftl.Read(lpn, dst) })
}

// WritePage writes one page of data at logical page lpn with no stream
// hint (auto-classified when the device runs in auto-stream mode).
func (d *Device) WritePage(t *sim.Task, lpn uint32, data []byte) error {
	return d.serve(t, metrics.CmdWrite, func() (sim.Duration, error) { return d.ftl.Write(lpn, data) })
}

// WritePageStream writes one page with an explicit stream hint: stream
// >= 0 names the host write stream the page should join (clamped to the
// configured count), stream < 0 is equivalent to WritePage. The hint only
// steers NAND placement; cost plans and command semantics are unchanged.
func (d *Device) WritePageStream(t *sim.Task, lpn uint32, data []byte, stream int) error {
	return d.serve(t, metrics.CmdWrite, func() (sim.Duration, error) { return d.ftl.WriteStream(lpn, data, stream) })
}

// Streams reports the number of host-visible write streams the device was
// configured with (0 in legacy single-stream mode — hints are accepted but
// collapse to the one stream).
func (d *Device) Streams() int { return d.cfg.FTL.HostStreams }

// StreamInfos snapshots per-stream placement state (open blocks per die,
// pages written, GC copyback attribution) for the inspector.
func (d *Device) StreamInfos() []ftl.StreamInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ftl.StreamInfos()
}

// Trim invalidates n logical pages starting at lpn.
func (d *Device) Trim(t *sim.Task, lpn uint32, n int) error {
	return d.serve(t, metrics.CmdTrim, func() (sim.Duration, error) { return d.ftl.Trim(lpn, n) })
}

// Share issues one SHARE command. Batches wider than MaxShareBatch must be
// split by the caller (ShareAll does this).
func (d *Device) Share(t *sim.Task, pairs []Pair) error {
	return d.serve(t, metrics.CmdShare, func() (sim.Duration, error) { return d.ftl.Share(pairs) })
}

// ShareAll issues pairs as a sequence of SHARE commands, none wider than
// MaxShareBatch. Each command is atomic; the sequence is not (callers
// needing all-or-nothing across more pages than one batch must keep their
// journal copy valid until completion, which is exactly what the
// doublewrite integration does).
//
// Packing rule: a pair that does not fit the open command closes it and
// starts the next, so a pair — one engine page, one document — is never
// torn across two atomic commands. Only a pair wider than MaxShareBatch on
// its own is split, into commands of its own.
func (d *Device) ShareAll(t *sim.Task, pairs []Pair) error {
	maxUnits := d.MaxShareBatch()
	var batch []Pair
	units := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := d.Share(t, batch)
		batch = batch[:0]
		units = 0
		return err
	}
	for _, p := range pairs {
		if p.Len == 0 {
			return fmt.Errorf("ssd: zero-length share pair")
		}
		if units+int(p.Len) > maxUnits {
			if err := flush(); err != nil {
				return err
			}
		}
		if int(p.Len) > maxUnits {
			for off := uint32(0); off < p.Len; off += uint32(maxUnits) {
				n := min(p.Len-off, uint32(maxUnits))
				if err := d.Share(t, []Pair{{Dst: p.Dst + off, Src: p.Src + off, Len: n}}); err != nil {
					return err
				}
			}
			continue
		}
		batch = append(batch, p)
		units += int(p.Len)
	}
	return flush()
}

// WriteAtomic writes a batch of pages whose mapping updates commit
// all-or-nothing (the atomic-write FTL baseline of §6.1). The batch must
// not exceed MaxShareBatch pages.
func (d *Device) WriteAtomic(t *sim.Task, pages []ftl.AtomicPage) error {
	return d.serve(t, metrics.CmdAtomic, func() (sim.Duration, error) { return d.ftl.WriteAtomic(pages) })
}

// AtomicPage re-exports the FTL atomic-write page for host code.
type AtomicPage = ftl.AtomicPage

// Flush persists buffered mapping state (the FLUSH CACHE behind fsync).
func (d *Device) Flush(t *sim.Task) error {
	return d.serve(t, metrics.CmdFlush, func() (sim.Duration, error) { return d.ftl.Flush() })
}

// Checkpoint forces an FTL mapping checkpoint.
func (d *Device) Checkpoint(t *sim.Task) error {
	return d.serve(t, metrics.CmdCheckpoint, func() (sim.Duration, error) { return d.ftl.Checkpoint() })
}

// Crash models a power failure: volatile device state is lost.
func (d *Device) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ftl.Crash()
}

// PowerCutAfter arms the NAND power-cut injector: after n more successful
// program/erase operations every further mutation fails, freezing flash at
// that exact boundary. Pair with Crash + DisablePowerCut + Recover to
// model a restart from an arbitrary crash point.
func (d *Device) PowerCutAfter(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chip.PowerCutAfter(n)
}

// DisablePowerCut restores power ahead of recovery.
func (d *Device) DisablePowerCut() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chip.DisablePowerCut()
}

// SetFaultPlan installs (or, with nil, removes) a NAND fault plan on a
// running device — fault-injection harnesses use it to switch faults on
// after a clean setup phase.
func (d *Device) SetFaultPlan(p *nand.FaultPlan) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.chip.SetFaultPlan(p)
}

// MutatingOps returns the chip's successful program+erase count — the
// boundary space a crash-point fuzzer iterates over.
func (d *Device) MutatingOps() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.chip.MutatingOps()
}

// ReadOnly reports whether the device has degraded to read-only mode
// (block retirements exhausted the spare budget).
func (d *Device) ReadOnly() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ftl.ReadOnly()
}

// SpareBlocksLeft reports the remaining block-retirement budget.
func (d *Device) SpareBlocksLeft() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ftl.SpareBlocksLeft()
}

// Recover rebuilds the FTL from flash after Crash.
func (d *Device) Recover(t *sim.Task) error {
	return d.serve(t, metrics.CmdRecover, func() (sim.Duration, error) { return d.ftl.Recover() })
}

// PatrolStep runs one increment of the background patrol scrubber: rank
// blocks by predicted media risk and refresh the riskiest one past the
// patrol threshold (see ftl.PatrolStep). The step's NAND work is served
// like any other command — replayed onto the per-die resource servers on
// die-scheduled devices — so patrol traffic queues behind foreground I/O
// in virtual time; hosts control its priority by how often they call it.
// Returns the refreshed block, or -1 if none needed refreshing.
func (d *Device) PatrolStep(t *sim.Task) (int, error) {
	refreshed := -1
	err := d.serve(t, metrics.CmdPatrol, func() (sim.Duration, error) {
		dur, b, err := d.ftl.PatrolStep()
		refreshed = b
		return dur, err
	})
	return refreshed, err
}

// AdvanceMediaTime ages retained data by idle virtual time (power-on idle
// between bursts of work). A no-op without a media model.
func (d *Device) AdvanceMediaTime(dur sim.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chip.AdvanceMediaTime(dur)
}

// MediaEnabled reports whether the device carries an endogenous aging
// model.
func (d *Device) MediaEnabled() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.chip.MediaEnabled()
}

// Age pre-conditions the drive the way the paper does before measuring: it
// fills fillRatio of the logical space and then rewrites randomFrac of it
// in random order, so steady-state garbage collection is active during the
// measured run.
func (d *Device) Age(t *sim.Task, fillRatio, randomFrac float64, seed int64) error {
	if fillRatio < 0 || fillRatio > 1 || randomFrac < 0 {
		return fmt.Errorf("ssd: bad aging parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	fill := randfill.New(rng) // stream-equivalent to rng.Read, much faster
	n := int(float64(d.Capacity()) * fillRatio)
	page := make([]byte, d.PageSize())
	for i := 0; i < n; i++ {
		fill.Fill(page)
		if err := d.WritePage(t, uint32(i), page); err != nil {
			return err
		}
	}
	rewrites := int(float64(n) * randomFrac)
	for i := 0; i < rewrites; i++ {
		fill.Fill(page)
		if err := d.WritePage(t, uint32(rng.Intn(n)), page); err != nil {
			return err
		}
	}
	return d.Flush(t)
}

// Stats combines FTL and chip counters. As returned by Device.Stats,
// every counter covers the current measurement epoch — the window since
// the last ResetStats (or since New) — while gauges (wear extremes, bad
// blocks, spare budget, read-only flag) are always current absolute
// state. Device.LifetimeStats returns the undiffed since-birth counters.
type Stats struct {
	FTL  ftl.Stats
	Chip nand.Stats
}

// sub returns the epoch view of s given the baseline recorded at
// ResetStats. The diff is structural, so a counter added to ftl.Stats or
// nand.Stats is covered without touching this file: every int64 field is
// differenced, every []int64 goes through subSlice, and the fields tagged
// `epoch:"gauge"` where they are declared pass through from s.
func (s Stats) sub(base Stats) Stats {
	out := s
	subFields(reflect.ValueOf(&out.FTL).Elem(), reflect.ValueOf(base.FTL))
	subFields(reflect.ValueOf(&out.Chip).Elem(), reflect.ValueOf(base.Chip))
	return out
}

// subFields differences the counters of one stats struct against base, in
// place. TestStatsFieldsClassified keeps the panic unreachable.
func subFields(out, base reflect.Value) {
	for i := 0; i < out.NumField(); i++ {
		sf := out.Type().Field(i)
		if sf.Tag.Get("epoch") == "gauge" {
			continue
		}
		switch f := out.Field(i); v := f.Interface().(type) {
		case int64:
			f.SetInt(v - base.Field(i).Int())
		case []int64:
			f.Set(reflect.ValueOf(subSlice(v, base.Field(i).Interface().([]int64))))
		default:
			panic(fmt.Sprintf("ssd: %s.%s is neither a counter nor a tagged gauge", out.Type(), sf.Name))
		}
	}
}

// subSlice diffs per-stream counter slices elementwise into a fresh
// allocation (the inputs are snapshots other epochs still reference). A
// nil baseline (ResetStats never called, or the device predates streams)
// passes the current values through.
func subSlice(cur, base []int64) []int64 {
	if cur == nil {
		return nil
	}
	out := append([]int64(nil), cur...)
	for i := range out {
		if i < len(base) {
			out[i] -= base[i]
		}
	}
	return out
}

func (d *Device) lifetimeLocked() Stats {
	return Stats{FTL: d.ftl.Stats(), Chip: d.chip.Stats()}
}

// Stats returns the device counters for the current epoch: everything
// since the last ResetStats (or device creation), with gauges reflecting
// current absolute state.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lifetimeLocked().sub(d.base)
}

// LifetimeStats returns the since-birth counters, ignoring any epoch
// baseline — for wear studies and whole-life accounting.
func (d *Device) LifetimeStats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lifetimeLocked()
}

// ResetStats starts a new measurement epoch: the current counters (FTL
// and chip) become the baseline Stats diffs against, and the metrics
// recorder (latency histograms, GC-stall attribution, trace ring) is
// cleared. Experiments call it after aging/loading so write
// amplification, GC and erase figures cover only the measured window.
func (d *Device) ResetStats() {
	d.mu.Lock()
	d.base = d.lifetimeLocked()
	for i, r := range d.dieRes {
		d.dieBusyBase[i] = r.BusyTime()
	}
	for i, r := range d.chanRes {
		d.chanBusyBase[i] = r.BusyTime()
	}
	d.mu.Unlock()
	d.rec.Reset()
}

// WriteAmplification returns NAND programs per host page write over the
// stats window (the current epoch for Device.Stats snapshots, since both
// numerator and denominator are baseline-diffed there).
func (s Stats) WriteAmplification() float64 {
	if s.FTL.HostWrites == 0 {
		return 0
	}
	return float64(s.Chip.Programs) / float64(s.FTL.HostWrites)
}

// Metrics returns the device's observability recorder: per-command
// latency histograms, GC-stall attribution and the FTL trace ring, all
// scoped to the current epoch.
func (d *Device) Metrics() *metrics.Recorder { return d.rec }

// QueueDepth returns the configured lump-sum command parallelism. It is
// only an admission gate on geometry-blind devices; die-scheduled devices
// derive concurrency from the array itself.
func (d *Device) QueueDepth() int { return d.res.Servers() }

// Geometry returns the NAND geometry backing the device.
func (d *Device) Geometry() nand.Geometry { return d.cfg.Geometry }

// DieScheduled reports whether the device schedules per-die (geometry
// named explicit channel/die counts) rather than lump-sum.
func (d *Device) DieScheduled() bool { return d.dieRes != nil }

// DieStat is one die's epoch-scoped scheduling telemetry.
type DieStat struct {
	Die     int   `json:"die"`
	Channel int   `json:"channel"`
	BusyNs  int64 `json:"busy_ns"` // virtual time the die spent serving NAND operations
	WaitNs  int64 `json:"wait_ns"` // virtual time operations queued behind this die
}

// ChannelStat is one channel bus's epoch-scoped telemetry.
type ChannelStat struct {
	Channel int   `json:"channel"`
	BusyNs  int64 `json:"busy_ns"` // virtual time the bus spent transferring pages
}

// DieTelemetry returns per-die busy time and queue-stall attribution for
// the current epoch, or nil for a geometry-blind device.
func (d *Device) DieTelemetry() []DieStat {
	if d.dieRes == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	waits := d.rec.DieWaits()
	out := make([]DieStat, len(d.dieRes))
	for i, r := range d.dieRes {
		out[i] = DieStat{
			Die:     i,
			Channel: d.cfg.Geometry.ChannelOfDie(i),
			BusyNs:  r.BusyTime() - d.dieBusyBase[i],
			WaitNs:  waits[i],
		}
	}
	return out
}

// ChannelTelemetry returns per-channel bus busy time for the current
// epoch, or nil for a geometry-blind device.
func (d *Device) ChannelTelemetry() []ChannelStat {
	if d.chanRes == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ChannelStat, len(d.chanRes))
	for i, r := range d.chanRes {
		out[i] = ChannelStat{Channel: i, BusyNs: r.BusyTime() - d.chanBusyBase[i]}
	}
	return out
}

// DieHealth is one die's media-health summary: wear spread across its
// blocks plus (with a media model) predicted worst-page RBER.
type DieHealth struct {
	Die      int     `json:"die"`
	Channel  int     `json:"channel"`
	Blocks   int     `json:"blocks"`
	Retired  int     `json:"retired"`
	MinWear  int64   `json:"min_wear"`
	MaxWear  int64   `json:"max_wear"`
	MeanWear float64 `json:"mean_wear"`
	MeanRBER float64 `json:"mean_rber,omitempty"` // mean per-block worst-page RBER
	MaxRBER  float64 `json:"max_rber,omitempty"`  // worst block's predicted RBER
}

// Health is the device's self-assessment: per-die wear and predicted RBER,
// self-healing activity (blocks refreshed and retired), and the current
// patrol/scrub queue depths. Counters are lifetime totals — health is a
// whole-life view, not an epoch one.
type Health struct {
	MediaEnabled       bool        `json:"media_enabled"`
	Dies               []DieHealth `json:"dies"`
	BlocksRefreshed    int64       `json:"blocks_refreshed"` // scrubbed: reactive + patrol
	PatrolRefreshes    int64       `json:"patrol_refreshes"` // the patrol-initiated subset
	RetiredBlocks      int64       `json:"retired_blocks"`
	PatrolBacklog      int         `json:"patrol_backlog"`    // blocks at/over the refresh threshold
	ScrubQueueDepth    int         `json:"scrub_queue_depth"` // reactive queue from retry-recovered reads
	ReadRetries        int64       `json:"read_retries"`
	SoftDecodes        int64       `json:"soft_decodes"`
	UncorrectableReads int64       `json:"uncorrectable_reads"`
	LostPages          int64       `json:"lost_pages"` // pending sectors: data lost during relocation
	MeanRBER           float64     `json:"mean_rber,omitempty"`
	MaxRBER            float64     `json:"max_rber,omitempty"`
}

// Health computes the device health report.
func (d *Device) Health() Health {
	d.mu.Lock()
	defer d.mu.Unlock()
	geo := d.cfg.Geometry
	fst := d.ftl.Stats()
	h := Health{
		MediaEnabled:       d.chip.MediaEnabled(),
		Dies:               make([]DieHealth, geo.NumDies()),
		BlocksRefreshed:    fst.ScrubbedBlocks,
		PatrolRefreshes:    fst.PatrolRefreshes,
		RetiredBlocks:      fst.RetiredBlocks,
		PatrolBacklog:      d.ftl.PatrolBacklog(),
		ScrubQueueDepth:    d.ftl.ScrubQueueLen(),
		ReadRetries:        fst.ReadRetries,
		SoftDecodes:        fst.SoftDecodes,
		UncorrectableReads: fst.UncorrectableReads,
		LostPages:          fst.LostPages,
	}
	type agg struct {
		wearSum, riskSum int64
	}
	sums := make([]agg, len(h.Dies))
	for i := range h.Dies {
		h.Dies[i] = DieHealth{Die: i, Channel: geo.ChannelOfDie(i), MinWear: -1}
	}
	for b := 0; b < geo.Blocks; b++ {
		die := geo.DieOfBlock(b)
		dh := &h.Dies[die]
		dh.Blocks++
		if d.ftl.IsRetired(b) {
			dh.Retired++
		}
		w := d.chip.EraseCount(b)
		sums[die].wearSum += w
		if w > dh.MaxWear {
			dh.MaxWear = w
		}
		if dh.MinWear < 0 || w < dh.MinWear {
			dh.MinWear = w
		}
		if h.MediaEnabled {
			r := d.chip.BlockRisk(b)
			sums[die].riskSum += r
			rber := float64(r) * nand.RBERPerRiskUnit
			if rber > dh.MaxRBER {
				dh.MaxRBER = rber
			}
			if rber > h.MaxRBER {
				h.MaxRBER = rber
			}
		}
	}
	var riskTotal int64
	for i := range h.Dies {
		dh := &h.Dies[i]
		if dh.MinWear < 0 {
			dh.MinWear = 0
		}
		if dh.Blocks > 0 {
			dh.MeanWear = float64(sums[i].wearSum) / float64(dh.Blocks)
			if h.MediaEnabled {
				dh.MeanRBER = float64(sums[i].riskSum) * nand.RBERPerRiskUnit / float64(dh.Blocks)
			}
		}
		riskTotal += sums[i].riskSum
	}
	if h.MediaEnabled && geo.Blocks > 0 {
		h.MeanRBER = float64(riskTotal) * nand.RBERPerRiskUnit / float64(geo.Blocks)
	}
	return h
}

// FTLForTest exposes the FTL for white-box tests and the inspector tool.
func (d *Device) FTLForTest() *ftl.FTL { return d.ftl }

// Resource exposes the lump-sum device queue, e.g. for utilization
// reporting on geometry-blind devices.
func (d *Device) Resource() *sim.MultiResource { return d.res }
