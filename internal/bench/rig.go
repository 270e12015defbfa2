// Package bench is the experiment harness: one named experiment per table
// and figure in the paper's evaluation (§5), each rebuilding the full
// stack — aged SHARE SSD, file system, engine, workload — and printing
// paper-style rows. cmd/sharebench and the repository's bench_test.go are
// thin wrappers around this registry.
package bench

import (
	"fmt"

	"share/internal/fsim"
	"share/internal/innodb"
	"share/internal/nand"
	"share/internal/sim"
	"share/internal/ssd"
)

// Params control an experiment run.
type Params struct {
	// Scale multiplies every size against the paper's setup (device 4 GiB,
	// LinkBench DB 1.5 GiB, 50–150 MiB buffer pool, YCSB 250k×4 KiB docs).
	// The shipped defaults keep runs in seconds; Scale=1 reproduces the
	// paper's sizes.
	Scale float64
	Seed  int64
	// OpScale multiplies the operation counts of throughput-style
	// experiments (currently the scale sweep) without touching device
	// sizes: OpScale=10 issues 10× the writes against the same geometry,
	// for profiling and soak-style stress at 10–100× the default volume.
	OpScale int
}

func (p *Params) setDefaults() {
	if p.Scale == 0 {
		p.Scale = 0.02
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	if p.OpScale < 1 {
		p.OpScale = 1
	}
}

// closedLoop is the measurement window of the concurrent experiments: n
// closed-loop clients run on one scheduler, each advanced to t0 — the
// virtual time at which setup (aging, formatting, loading) left the device
// idle — before its first operation, so the window [t0, end] holds the
// measured operations and nothing of the setup's queue draining. It
// returns when the last client finishes, with the first client error.
func closedLoop(t0 int64, n int, client func(task *sim.Task, i int) error) (end int64, err error) {
	s := sim.NewScheduler()
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		s.Go(fmt.Sprintf("cli%d", i), func(task *sim.Task) {
			task.AdvanceTo(t0)
			errs[i] = client(task, i)
		})
	}
	end = s.Run()
	for _, err := range errs {
		if err != nil {
			return end, err
		}
	}
	return end, nil
}

// paper-sized baselines (Scale == 1).
const (
	paperDeviceBlocks = 8192 // 4 GiB of 128×4 KiB blocks (OpenSSD)
	paperLogBlocks    = 4096
	paperLinkNodes    = 400_000
	paperLinkRequests = 10_000 // per client, 16 clients
	paperBufferMB     = 50
	paperYCSBRecords  = 250_000
	paperYCSBOps      = 250_000
)

func scaled(base int, scale float64) int {
	v := int(float64(base) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// newDataDevice builds the OpenSSD-like data drive and pre-ages it so
// garbage collection is active during the measured run, as §5.1 does.
func newDataDevice(p Params, name string) (*ssd.Device, *sim.Task, error) {
	blocks := scaled(paperDeviceBlocks, p.Scale)
	if blocks < 64 {
		blocks = 64
	}
	cfg := ssd.DefaultConfig(blocks)
	dev, err := ssd.New(name, cfg)
	if err != nil {
		return nil, nil, err
	}
	task := sim.NewSoloTask("setup")
	// Aging: fill the logical space with junk and churn part of it so the
	// flash is worn and block contents are scrambled, then discard the
	// logical space the way mke2fs does before the file system is laid
	// down. The drive starts the benchmark with its free-block pool low
	// (reclaim happens lazily through GC), which is the aged steady state
	// §5.1 prepares.
	if err := dev.Age(task, 0.95, 0.3, p.Seed); err != nil {
		return nil, nil, err
	}
	if err := dev.Trim(task, 0, dev.Capacity()); err != nil {
		return nil, nil, err
	}
	return dev, task, nil
}

// newLogDevice models the Samsung PM853T used for the MySQL redo log: a
// fast, power-loss-protected drive.
func newLogDevice(p Params) (*ssd.Device, error) {
	blocks := scaled(paperLogBlocks, p.Scale)
	if blocks < 64 {
		blocks = 64
	}
	cfg := ssd.DefaultConfig(blocks)
	cfg.Timing = nand.Timing{
		ReadPage: 20 * sim.Microsecond,
		Program:  50 * sim.Microsecond,
		Erase:    500 * sim.Microsecond,
		Transfer: 5 * sim.Microsecond,
	}
	cfg.FTL.PowerCapacitor = true
	return ssd.New("logdev", cfg)
}

// linkRig is a ready-to-run MySQL/InnoDB + LinkBench setup.
type linkRig struct {
	dev  *ssd.Device
	eng  *innodb.Engine
	task *sim.Task
}

// newLinkRig builds device, fs and engine; the caller sizes and loads the
// LinkBench graph against the device capacity.
func newLinkRig(p Params, mode innodb.FlushMode, pageSize int, bufferMB float64) (*linkRig, error) {
	dev, task, err := newDataDevice(p, "openssd")
	if err != nil {
		return nil, err
	}
	fs, err := fsim.Format(task, dev, 256)
	if err != nil {
		return nil, err
	}
	logDev, err := newLogDevice(p)
	if err != nil {
		return nil, err
	}
	poolBytes := int64(bufferMB * 1024 * 1024 * p.Scale)
	if poolBytes < int64(pageSize)*64 {
		poolBytes = int64(pageSize) * 64
	}
	// Size the tablespace to ~60% of the device; the loaded database fills
	// ~2/3 of it, like 1.5 GiB on 4 GiB.
	dataBytes := dev.CapacityBytes() * 60 / 100
	eng, err := innodb.Open(task, fs, logDev, innodb.Config{
		PageSize:  pageSize,
		PoolBytes: poolBytes,
		FlushMode: mode,
		DWBPages:  32,
		DataBytes: dataBytes,
		LogPages:  uint32(logDev.Capacity()) / 2,
	})
	if err != nil {
		return nil, err
	}
	return &linkRig{dev: dev, eng: eng, task: task}, nil
}

func fmtThroughput(v float64) string { return fmt.Sprintf("%.0f", v) }

func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

func mb(bytes int64) float64 { return float64(bytes) / (1024 * 1024) }

// innoEngineCounters converts innodb stats into the report's engine
// robustness counters: recovery work and degradation visibility.
func innoEngineCounters(st innodb.Stats) map[string]int64 {
	return map[string]int64{
		"commits":               st.Commits,
		"share_pairs":           st.SharePairs,
		"torn_restored":         st.TornRestored,
		"redo_applied":          st.RedoApplied,
		"read_only_transitions": st.ReadOnlyTransitions,
	}
}
