package bench

import (
	"fmt"
	"strings"

	"share/internal/randfill"
	"share/internal/sim"
	"share/internal/ssd"
)

// The scale experiment measures how die-level parallelism converts queue
// depth into throughput: the same concurrent random-write workload runs
// against 1-, 2- and 4-channel arrays (one die per channel) at increasing
// client counts. With one channel every program serializes through the
// single die; with four, programs on different dies overlap, so at queue
// depth >= 8 the 4-channel array must sustain at least twice the
// 1-channel throughput. Per-die busy/wait telemetry for the deepest
// sweep point of each array lands in the report, which is how the
// BENCH_scale.json regression pins both the speedup and the evenness of
// die-striped allocation.
func init() {
	register(Experiment{
		ID:    "scale",
		Title: "Scale: write throughput vs queue depth across 1/2/4-channel die arrays",
		Run:   runScale,
	})
}

// scaleBlocks keeps every array the same total size, so the sweep varies
// only the parallelism degree, never the capacity or GC pressure.
const scaleBlocks = 256

var (
	scaleChannels = []int{1, 2, 4}
	scaleDepths   = []int{1, 2, 4, 8, 16}
)

// scaleProto builds and ages the device for one channel count. Aging is
// by far the most expensive part of a sweep point and depends only on
// (geometry, seed), so every depth point of a channel count clones this
// prototype instead of re-aging from scratch — identical results (the
// clone contract, pinned by ssd's TestCloneEquivalence and the
// BENCH_scale.json fixture) at a fifth of the wall-clock cost. The
// returned time is the aging completion, where measured clients start.
func scaleProto(p Params, channels int) (*ssd.Device, int64, error) {
	cfg := ssd.DefaultConfig(scaleBlocks)
	cfg.Geometry.Channels = channels
	cfg.Geometry.DiesPerChannel = 1 // explicit: the baseline uses the same per-die scheduler
	dev, err := ssd.New(fmt.Sprintf("scale-c%d", channels), cfg)
	if err != nil {
		return nil, 0, err
	}
	setup := sim.NewSoloTask("setup")
	if err := dev.Age(setup, 0.5, 0.2, p.Seed); err != nil {
		return nil, 0, err
	}
	return dev, setup.Now(), nil
}

// scalePoint runs one (channels, queueDepth) sweep point against a clone
// of the aged prototype and returns the measured write throughput in
// ops/s plus the device for telemetry.
func scalePoint(p Params, proto *ssd.Device, channels, depth int, t0 int64) (float64, *ssd.Device, error) {
	writesPerClient := 250 * p.OpScale
	dev, err := proto.Clone(fmt.Sprintf("scale-c%d", channels))
	if err != nil {
		return 0, nil, err
	}
	dev.ResetStats() // measure the sweep workload, not the aging

	span := dev.Capacity() / 2
	end, err := closedLoop(t0, depth, func(task *sim.Task, i int) error {
		rng := newRand(p.Seed + int64(i) + 1)
		fill := randfill.New(rng)
		page := make([]byte, dev.PageSize())
		for n := 0; n < writesPerClient; n++ {
			fill.Fill(page)
			if err := dev.WritePage(task, uint32(rng.Intn(span)), page); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	elapsed := float64(end-t0) / float64(sim.Second)
	return float64(depth*writesPerClient) / elapsed, dev, nil
}

func runScale(p Params, r *Report) (string, error) {
	p.setDefaults()
	tput := map[int]map[int]float64{}
	var out strings.Builder
	fmt.Fprintf(&out, "scale: random writes, %d-block arrays, 1 die per channel\n", scaleBlocks)
	fmt.Fprintf(&out, "%-10s", "channels")
	for _, qd := range scaleDepths {
		fmt.Fprintf(&out, " qd=%-8d", qd)
	}
	out.WriteByte('\n')
	maxDepth := scaleDepths[len(scaleDepths)-1]
	for _, ch := range scaleChannels {
		proto, t0, err := scaleProto(p, ch)
		if err != nil {
			return "", err
		}
		tput[ch] = map[int]float64{}
		fmt.Fprintf(&out, "%-10d", ch)
		for _, qd := range scaleDepths {
			v, dev, err := scalePoint(p, proto, ch, qd, t0)
			if err != nil {
				return "", err
			}
			tput[ch][qd] = v
			r.Metric(fmt.Sprintf("tput_c%d_qd%d", ch, qd), v, "ops/s")
			fmt.Fprintf(&out, " %-11s", fmtThroughput(v))
			if qd == maxDepth {
				// Telemetry snapshot at the deepest point per array.
				r.Device(fmt.Sprintf("c%d_qd%d", ch, qd), dev)
			}
		}
		out.WriteByte('\n')
	}
	speedup := 0.0
	if base := tput[1][8]; base > 0 {
		speedup = tput[4][8] / base
	}
	r.Metric("speedup_c4_over_c1_qd8", speedup, "x")
	fmt.Fprintf(&out, "4-channel speedup over 1-channel at qd=8: %s\n",
		ratio(tput[4][8], tput[1][8]))
	return out.String(), nil
}
