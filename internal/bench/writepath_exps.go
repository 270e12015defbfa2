package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"share/internal/randfill"
	"share/internal/sim"
	"share/internal/ssd"
)

// The writepath experiment is a taxonomy sweep of the write path: IO size
// (pages per operation) × queue depth × placement strategy (legacy single
// stream vs host-hinted streams vs the FTL's auto-stream classifier) on
// the same aged 4-channel device. Each cell measures zipfian update
// throughput and write amplification; the crossover map names the winning
// strategy per cell, which is the decision table a host would consult
// when choosing whether hinting is worth plumbing through its stack:
// hints pay at small sequential-run sizes where per-page placement
// matters most, while at large IO sizes the runs self-segregate and the
// legacy path catches up. Placement strategies age separate prototypes
// (their FTL configs differ), but within a strategy every (size, depth)
// cell clones one aged prototype, so the sweep measures the cells, not
// repeated aging.
func init() {
	register(Experiment{
		ID:    "writepath",
		Title: "Writepath: IO size × queue depth × placement strategy crossover",
		Run:   runWritepath,
	})
}

const (
	writepathBlocks = 256 // 4-channel geometry, one die per channel
	// Same compact geometry as the streams experiment: small pages keep
	// three aged prototypes and 27 measured cells in the seconds range
	// without changing the GC dynamics under study.
	writepathPageSize  = 2048
	writepathPagesPerB = 64
	writepathOverProv  = 0.20
	writepathHotFrac   = 16 // zipfian head treated as hot by host hints
	writepathChurn     = 1  // unmeasured churn multiple of capacity while aging
	// Pages written per measured cell (split across clients, grouped into
	// ops of the cell's IO size).
	writepathCellPages = 4096
)

var (
	writepathSizes      = []int{1, 4, 16}
	writepathDepths     = []int{1, 4, 8}
	writepathStrategies = []string{"legacy", "streams", "auto"}
)

// writepathProto builds and ages one placement strategy's device: fill
// plus one zipfian churn epoch, so GC is live and blocks are scrambled
// before any cell is measured. Returns the device and the aging end time.
func writepathProto(p Params, strategy string) (*ssd.Device, int64, error) {
	cfg := ssd.DefaultConfig(writepathBlocks)
	cfg.Geometry.PageSize = writepathPageSize
	cfg.Geometry.PagesPerBlock = writepathPagesPerB
	cfg.Geometry.Channels = 4
	cfg.Geometry.DiesPerChannel = 1
	cfg.FTL.OverProvision = writepathOverProv
	switch strategy {
	case "streams":
		cfg.FTL.HostStreams = 2
	case "auto":
		cfg.FTL.HostStreams = 2
		cfg.FTL.AutoStream = true
	}
	dev, err := ssd.New("writepath-"+strategy, cfg)
	if err != nil {
		return nil, 0, err
	}
	t := sim.NewSoloTask("writepath-" + strategy)
	capacity := dev.Capacity()
	page := make([]byte, dev.PageSize())
	rng := newRand(p.Seed + 61)
	fill := randfill.New(rng)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(capacity-1))
	hot := uint32(capacity / writepathHotFrac)
	write := func(lpn uint32) error {
		fill.Fill(page[:16])
		return dev.WritePageStream(t, lpn, page, writepathHint(strategy, lpn, hot))
	}
	for lpn := 0; lpn < capacity; lpn++ {
		if err := write(uint32(lpn)); err != nil {
			return nil, 0, fmt.Errorf("writepath %s: fill lpn %d: %w", strategy, lpn, err)
		}
	}
	for i := 0; i < writepathChurn*capacity; i++ {
		if err := write(uint32(zipf.Uint64())); err != nil {
			return nil, 0, fmt.Errorf("writepath %s: churn write %d: %w", strategy, i, err)
		}
	}
	return dev, t.Now(), nil
}

// writepathHint is the host's placement decision: tag the zipfian head
// hot on the hinted leg, let the device decide otherwise.
func writepathHint(strategy string, lpn, hot uint32) int {
	if strategy != "streams" {
		return -1 // legacy: single stream; auto: classifier decides
	}
	if lpn < hot {
		return 1
	}
	return 0
}

// writepathCell measures one (strategy, ioSize, depth) cell on a clone of
// the strategy's aged prototype: depth concurrent clients issue zipfian
// updates of ioSize contiguous pages each. Returns throughput in pages/s
// and the epoch write amplification.
func writepathCell(p Params, proto *ssd.Device, strategy string, ioSize, depth int, t0 int64) (float64, float64, error) {
	dev, err := proto.Clone(fmt.Sprintf("writepath-%s-s%d-qd%d", strategy, ioSize, depth))
	if err != nil {
		return 0, 0, err
	}
	dev.ResetStats()
	capacity := dev.Capacity()
	hot := uint32(capacity / writepathHotFrac)
	span := capacity - ioSize // ops stay in bounds without wrapping
	opsPerClient := writepathCellPages / (ioSize * depth)
	end, err := closedLoop(t0, depth, func(task *sim.Task, c int) error {
		rng := newRand(p.Seed + int64(100*ioSize+10*depth+c))
		fill := randfill.New(rng)
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(span-1))
		page := make([]byte, dev.PageSize())
		for n := 0; n < opsPerClient; n++ {
			base := uint32(zipf.Uint64())
			for k := 0; k < ioSize; k++ {
				lpn := base + uint32(k)
				fill.Fill(page[:16])
				if err := dev.WritePageStream(task, lpn, page, writepathHint(strategy, lpn, hot)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	flusher := sim.NewSoloTask("flush")
	flusher.AdvanceTo(end)
	if err := dev.Flush(flusher); err != nil {
		return 0, 0, err
	}
	st := dev.Stats()
	elapsed := float64(end-t0) / float64(sim.Second)
	pages := float64(opsPerClient * ioSize * depth)
	return pages / elapsed, st.WriteAmplification(), nil
}

func runWritepath(p Params, r *Report) (string, error) {
	p.setDefaults()
	var out strings.Builder
	fmt.Fprintf(&out, "writepath: zipfian updates on 4-channel %d-block devices, %d pages per cell\n",
		writepathBlocks, writepathCellPages)

	type cell struct{ tput, wa float64 }
	results := map[string]map[[2]int]cell{}
	for _, strategy := range writepathStrategies {
		proto, t0, err := writepathProto(p, strategy)
		if err != nil {
			return "", err
		}
		results[strategy] = map[[2]int]cell{}
		fmt.Fprintf(&out, "\n%s (pages/s, WA)\n%-8s", strategy, "size")
		for _, qd := range writepathDepths {
			fmt.Fprintf(&out, " qd=%-14d", qd)
		}
		out.WriteByte('\n')
		for _, size := range writepathSizes {
			fmt.Fprintf(&out, "%-8d", size)
			for _, qd := range writepathDepths {
				tput, wa, err := writepathCell(p, proto, strategy, size, qd, t0)
				if err != nil {
					return "", err
				}
				results[strategy][[2]int{size, qd}] = cell{tput: tput, wa: wa}
				r.Metric(fmt.Sprintf("tput_%s_s%d_qd%d", strategy, size, qd), tput, "pages/s")
				r.Metric(fmt.Sprintf("wa_%s_s%d_qd%d", strategy, size, qd), wa, "x")
				fmt.Fprintf(&out, " %-9s %-7.3f", fmtThroughput(tput), wa)
			}
			out.WriteByte('\n')
		}
	}

	// Crossover map: the throughput winner per (size, depth) cell, with
	// the winner's index recorded as a metric so the regression pins the
	// shape of the map, not just individual magnitudes.
	fmt.Fprintf(&out, "\ncrossover map (throughput winner)\n%-8s", "size")
	for _, qd := range writepathDepths {
		fmt.Fprintf(&out, " qd=%-10d", qd)
	}
	out.WriteByte('\n')
	for _, size := range writepathSizes {
		fmt.Fprintf(&out, "%-8d", size)
		for _, qd := range writepathDepths {
			winner, best := 0, -1.0
			for i, strategy := range writepathStrategies {
				if c := results[strategy][[2]int{size, qd}]; c.tput > best {
					winner, best = i, c.tput
				}
			}
			r.Metric(fmt.Sprintf("winner_s%d_qd%d", size, qd), float64(winner), "idx")
			fmt.Fprintf(&out, " %-13s", writepathStrategies[winner])
		}
		out.WriteByte('\n')
	}
	return out.String(), nil
}
