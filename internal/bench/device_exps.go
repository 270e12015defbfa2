package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"share/internal/randfill"
	"share/internal/sim"
	"share/internal/ssd"
)

// The device experiment sweeps one aged device's write path over the
// taxonomy of PAPERS.md "How to Write to SSDs": channels × queue depth ×
// IO size × placement (legacy single stream, explicit hot/cold host
// hints, the FTL's auto-stream classifier). Each cell clones a prototype
// aged by a fill plus zipfian churn — GC live, blocks scrambled — and
// measures zipfian update throughput, WA and GC copybacks. Two tables read
// the cells: parallelism (legacy single-page writes on 1/2/4-channel
// arrays; at depth 8 four channels must at least double one) and the
// 4-channel placement crossover (which strategy wins each IO size and
// depth). Segregating the zipfian head makes GC victims mostly dead, so
// at single-page writes hints and auto must cut WA and copybacks; at large
// IO sizes runs self-segregate and legacy catches up. Aging dominates a
// cell's cost and depends only on (channels, placement, seed), so cells
// clone one prototype per key (ssd's TestCloneEquivalence pins clones).
func init() {
	register(Experiment{
		ID:    "device",
		Title: "Device: channels × queue depth × IO size × placement on aged devices",
		Run:   runDevice,
	})
}

const (
	deviceBlocks = 256 // one die per channel
	// Small pages keep five aged prototypes and 39 measured cells in the
	// seconds range without changing the GC dynamics under study.
	devicePageSize  = 2048
	devicePagesPerB = 64
	// Enough over-provisioning that the extra open blocks multi-stream
	// mode pins per die (one per host stream) are a small fraction of the
	// free pool.
	deviceOverProv = 0.20
	// Hot set: the zipfian head. With s=1.1 the first 1/16th of the
	// address space receives roughly three quarters of the updates, so
	// "is the lpn in the head?" is the hint an object-aware host would
	// derive from its own write skew.
	deviceHotFrac = 16
	// Pages written per measured cell (split across clients, grouped into
	// ops of the cell's IO size), multiplied by Params.OpScale.
	deviceCellPages = 4096
)

var (
	devicePlacements = []string{"legacy", "hints", "auto"}
	// Parallelism table: legacy, single-page writes.
	deviceChannels = []int{1, 2, 4}
	deviceDepths   = []int{1, 2, 4, 8, 16}
	// Placement crossover table: 4 channels.
	deviceSizes       = []int{1, 4, 16}
	devicePlaceDepths = []int{1, 4, 8}
)

// deviceKey names one cell of the sweep.
type deviceKey struct {
	channels  int
	placement string
	size      int
	depth     int
}

// deviceProto builds and ages the prototype for (channels, placement):
// fill the logical space, then one capacity's worth of zipfian
// overwrites. Returns the device and the aging end time.
func deviceProto(p Params, channels int, placement string) (*ssd.Device, int64, error) {
	cfg := ssd.DefaultConfig(deviceBlocks)
	cfg.Geometry.PageSize = devicePageSize
	cfg.Geometry.PagesPerBlock = devicePagesPerB
	cfg.Geometry.Channels = channels
	cfg.Geometry.DiesPerChannel = 1 // explicit: every array uses the per-die scheduler
	cfg.FTL.OverProvision = deviceOverProv
	switch placement {
	case "hints":
		cfg.FTL.HostStreams = 2
	case "auto":
		cfg.FTL.HostStreams = 2
		cfg.FTL.AutoStream = true
	}
	name := fmt.Sprintf("device-c%d-%s", channels, placement)
	dev, err := ssd.New(name, cfg)
	if err != nil {
		return nil, 0, err
	}
	t := sim.NewSoloTask(name)
	capacity := dev.Capacity()
	page := make([]byte, dev.PageSize())
	rng := newRand(p.Seed + 61)
	fill := randfill.New(rng)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(capacity-1))
	hot := uint32(capacity / deviceHotFrac)
	write := func(lpn uint32) error {
		fill.Fill(page[:16])
		return dev.WritePageStream(t, lpn, page, deviceHint(placement, lpn, hot))
	}
	for lpn := 0; lpn < capacity; lpn++ {
		if err := write(uint32(lpn)); err != nil {
			return nil, 0, fmt.Errorf("%s: fill lpn %d: %w", name, lpn, err)
		}
	}
	for i := 0; i < capacity; i++ {
		if err := write(uint32(zipf.Uint64())); err != nil {
			return nil, 0, fmt.Errorf("%s: churn write %d: %w", name, i, err)
		}
	}
	return dev, t.Now(), nil
}

// deviceHint is the host's placement decision: tag the zipfian head hot
// under hints, let the device decide otherwise.
func deviceHint(placement string, lpn, hot uint32) int {
	if placement != "hints" {
		return -1 // legacy: single stream; auto: classifier decides
	}
	if lpn < hot {
		return 1
	}
	return 0
}

// deviceCell measures one cell on a clone of its prototype: depth
// concurrent clients issue zipfian updates of size contiguous pages
// each, then the device is flushed. Returns throughput in pages/s, the
// epoch stats (WA, copybacks, per-stream counters) and the device for
// telemetry.
func deviceCell(p Params, proto *ssd.Device, k deviceKey, t0 int64) (float64, ssd.Stats, *ssd.Device, error) {
	dev, err := proto.Clone(fmt.Sprintf("device-c%d-%s-s%d-qd%d", k.channels, k.placement, k.size, k.depth))
	if err != nil {
		return 0, ssd.Stats{}, nil, err
	}
	dev.ResetStats()
	capacity := dev.Capacity()
	hot := uint32(capacity / deviceHotFrac)
	span := capacity - k.size // ops stay in bounds without wrapping
	opsPerClient := deviceCellPages * p.OpScale / (k.size * k.depth)
	end, err := closedLoop(t0, k.depth, func(task *sim.Task, c int) error {
		rng := newRand(p.Seed + int64(100*k.size+10*k.depth+c))
		fill := randfill.New(rng)
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(span-1))
		page := make([]byte, dev.PageSize())
		for n := 0; n < opsPerClient; n++ {
			base := uint32(zipf.Uint64())
			for i := 0; i < k.size; i++ {
				lpn := base + uint32(i)
				fill.Fill(page[:16])
				if err := dev.WritePageStream(task, lpn, page, deviceHint(k.placement, lpn, hot)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, ssd.Stats{}, nil, err
	}
	flusher := sim.NewSoloTask("flush")
	flusher.AdvanceTo(end)
	if err := dev.Flush(flusher); err != nil {
		return 0, ssd.Stats{}, nil, err
	}
	elapsed := float64(end-t0) / float64(sim.Second)
	pages := float64(opsPerClient * k.size * k.depth)
	return pages / elapsed, dev.Stats(), dev, nil
}

type deviceResult struct {
	tput float64
	st   ssd.Stats
}

func runDevice(p Params, r *Report) (string, error) {
	p.setDefaults()
	if p.OpScale > 1 {
		r.Config.OpScale = p.OpScale
	}
	// Cells in prototype order: the parallelism rows, then the crossover
	// grid per placement, so each prototype is aged once and dropped
	// before the next. The legacy 4-channel size-1 cells sit in both.
	var keys []deviceKey
	for _, ch := range deviceChannels {
		for _, qd := range deviceDepths {
			keys = append(keys, deviceKey{ch, "legacy", 1, qd})
		}
	}
	for _, placement := range devicePlacements {
		for _, size := range deviceSizes {
			for _, qd := range devicePlaceDepths {
				keys = append(keys, deviceKey{4, placement, size, qd})
			}
		}
	}
	res := map[deviceKey]deviceResult{}
	var proto *ssd.Device
	var protoKey deviceKey
	var t0 int64
	for _, k := range keys {
		if _, done := res[k]; done {
			continue
		}
		if pk := (deviceKey{channels: k.channels, placement: k.placement}); pk != protoKey {
			var err error
			if proto, t0, err = deviceProto(p, k.channels, k.placement); err != nil {
				return "", err
			}
			protoKey = pk
		}
		tput, st, dev, err := deviceCell(p, proto, k, t0)
		if err != nil {
			return "", err
		}
		res[k] = deviceResult{tput: tput, st: st}
		switch {
		case k.placement == "legacy" && k.size == 1 && k.depth == deviceDepths[len(deviceDepths)-1]:
			r.Device(fmt.Sprintf("c%d_qd%d", k.channels, k.depth), dev)
		case k.placement == "hints" && k.size == 1 && k.depth == 1:
			r.Device("hints", dev)
		}
	}

	var out strings.Builder
	fmt.Fprintf(&out, "device: zipfian updates on aged %d-block devices (%d B pages, 1 die per channel), %d pages per cell\n",
		deviceBlocks, devicePageSize, deviceCellPages*p.OpScale)

	// Parallelism: legacy, single-page writes.
	fmt.Fprintf(&out, "\nparallelism: legacy, 1-page writes (pages/s)\n%-10s", "channels")
	for _, qd := range deviceDepths {
		fmt.Fprintf(&out, " qd=%-8d", qd)
	}
	out.WriteByte('\n')
	for _, ch := range deviceChannels {
		fmt.Fprintf(&out, "%-10d", ch)
		for _, qd := range deviceDepths {
			v := res[deviceKey{ch, "legacy", 1, qd}].tput
			r.Metric(fmt.Sprintf("tput_c%d_qd%d", ch, qd), v, "pages/s")
			fmt.Fprintf(&out, " %-11s", fmtThroughput(v))
		}
		out.WriteByte('\n')
	}
	c1, c4 := res[deviceKey{1, "legacy", 1, 8}].tput, res[deviceKey{4, "legacy", 1, 8}].tput
	r.Metric("speedup_c4_over_c1_qd8", c4/c1, "x")
	fmt.Fprintf(&out, "4-channel speedup over 1-channel at qd=8: %s\n", ratio(c4, c1))

	// Placement crossover on 4 channels.
	for _, placement := range devicePlacements {
		fmt.Fprintf(&out, "\nplacement %s, 4 channels (pages/s, WA)\n%-8s", placement, "size")
		for _, qd := range devicePlaceDepths {
			fmt.Fprintf(&out, " qd=%-14d", qd)
		}
		out.WriteByte('\n')
		for _, size := range deviceSizes {
			fmt.Fprintf(&out, "%-8d", size)
			for _, qd := range devicePlaceDepths {
				c := res[deviceKey{4, placement, size, qd}]
				wa := c.st.WriteAmplification()
				r.Metric(fmt.Sprintf("tput_%s_s%d_qd%d", placement, size, qd), c.tput, "pages/s")
				r.Metric(fmt.Sprintf("wa_%s_s%d_qd%d", placement, size, qd), wa, "x")
				fmt.Fprintf(&out, " %-9s %-7.3f", fmtThroughput(c.tput), wa)
			}
			out.WriteByte('\n')
		}
	}
	// The winner's index is a metric so the regression pins the shape of
	// the map, not just individual magnitudes.
	fmt.Fprintf(&out, "\ncrossover map (throughput winner)\n%-8s", "size")
	for _, qd := range devicePlaceDepths {
		fmt.Fprintf(&out, " qd=%-10d", qd)
	}
	out.WriteByte('\n')
	for _, size := range deviceSizes {
		fmt.Fprintf(&out, "%-8d", size)
		for _, qd := range devicePlaceDepths {
			winner, best := 0, -1.0
			for i, placement := range devicePlacements {
				if c := res[deviceKey{4, placement, size, qd}]; c.tput > best {
					winner, best = i, c.tput
				}
			}
			r.Metric(fmt.Sprintf("winner_s%d_qd%d", size, qd), float64(winner), "idx")
			fmt.Fprintf(&out, " %-13s", devicePlacements[winner])
		}
		out.WriteByte('\n')
	}

	// Segregation at single-page writes, queue depth 1: the reductions
	// are pinned here because at large IO sizes legacy catches up.
	base := res[deviceKey{4, "legacy", 1, 1}].st
	fmt.Fprintf(&out, "\ns1 qd1 vs legacy (WA %.3f, %d copybacks):\n", base.WriteAmplification(), base.FTL.Copybacks)
	for _, placement := range devicePlacements[1:] {
		st := res[deviceKey{4, placement, 1, 1}].st
		waRed := 1 - st.WriteAmplification()/base.WriteAmplification()
		cbRed := 1 - float64(st.FTL.Copybacks)/float64(base.FTL.Copybacks)
		r.Metric("wa_reduction_"+placement, waRed, "frac")
		r.Metric("copyback_reduction_"+placement, cbRed, "frac")
		for s := range st.FTL.StreamWrites {
			r.Metric(fmt.Sprintf("stream%d_writes_%s", s, placement), float64(st.FTL.StreamWrites[s]), "pages")
			r.Metric(fmt.Sprintf("stream%d_copybacks_%s", s, placement), float64(st.FTL.StreamCopybacks[s]), "pages")
		}
		fmt.Fprintf(&out, "%-8s WA %.3f (-%.1f%%), %d copybacks (-%.1f%%), stream writes %v, copybacks %v\n",
			placement, st.WriteAmplification(), 100*waRed, st.FTL.Copybacks, 100*cbRed,
			st.FTL.StreamWrites, st.FTL.StreamCopybacks)
	}
	return out.String(), nil
}
