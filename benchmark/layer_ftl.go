package main

import (
	"errors"
	"math/rand"

	"share/internal/ftl"
	"share/internal/nand"
)

// Adapter for internal/ftl. Touches: ftl.DefaultConfig, ftl.New,
// FTL.Capacity, FTL.Write, FTL.Read, FTL.Share, FTL.CheckInvariants,
// ftl.Pair, ftl.ErrUnmapped; and, through ssd.Stats.FTL, the counters
// HostReads, HostWrites, SharePairs, ForcedCopies, GCEvents, Copybacks,
// GCStallNanos.

// isUnmapped reports the one device error dev-mixed accepts: a SHARE
// whose source was trimmed.
func isUnmapped(err error) bool { return errors.Is(err, ftl.ErrUnmapped) }

func ftlMetrics(m metricSet, c devCounters, ops int64) {
	kops := float64(ops) / 1000
	m["ftl.host_writes_per_op"] = ratio(float64(c.hostWrites), float64(ops))
	m["ftl.host_reads_per_op"] = ratio(float64(c.hostReads), float64(ops))
	m["ftl.share_pairs_per_op"] = ratio(float64(c.sharePairs), float64(ops))
	m["ftl.write_amp"] = ratio(float64(c.programs), float64(c.hostWrites))
	m["ftl.copybacks_per_host_write"] = ratio(float64(c.copybacks), float64(c.hostWrites))
	m["ftl.gc_events_per_kop"] = ratio(float64(c.gcEvents), kops)
	m["ftl.gc_stall_virt_ms_per_kop"] = ratio(float64(c.gcStallNs)/1e6, kops)
	m["ftl.forced_copy_ratio"] = ratio(float64(c.forcedCopies), float64(c.sharePairs+c.forcedCopies))
}

// probeFTL drives a bare FTL over a bare chip: overwrites with GC nearly
// idle (half-full), overwrites with GC on every few writes (90 % full and
// churned), reads, and SHARE in batches of 32 single-page pairs.
func probeFTL(rc *runCtx, m metricSet) error {
	ops := rc.probeOps(60_000)
	rng := rand.New(rand.NewSource(rc.seed))
	build := func(fill float64) (*ftl.FTL, int, error) {
		chip, err := nand.New(nand.Geometry{PageSize: 4096, PagesPerBlock: 128, Blocks: 256}, nand.DefaultTiming())
		if err != nil {
			return nil, 0, err
		}
		f, err := ftl.New(chip, ftl.DefaultConfig())
		if err != nil {
			return nil, 0, err
		}
		n := int(float64(f.Capacity()) * fill)
		buf := make([]byte, 4096)
		for i := 0; i < n; i++ {
			if _, err := f.Write(uint32(i), buf); err != nil {
				return nil, 0, err
			}
		}
		return f, n, nil
	}
	buf := make([]byte, 4096)
	var fe errTally
	keep := fe.keep
	overwrite := func(f *ftl.FTL, span int) func(int) {
		return func(int) {
			_, err := f.Write(uint32(rng.Intn(span)), buf)
			keep(err)
		}
	}

	light, span, err := build(0.5)
	if err != nil {
		return err
	}
	m["ftl.write_wall_ns"] = medianOf(3, func() float64 { return nsPerOp(ops, overwrite(light, span)) })
	m["ftl.read_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(int) {
			_, err := light.Read(uint32(rng.Intn(span)), buf)
			keep(err)
		})
	})
	pairs := make([]ftl.Pair, 32)
	m["ftl.share_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops/32, func(int) {
			for i := range pairs {
				src := uint32(rng.Intn(span))
				dst := uint32(rng.Intn(span - 1))
				if dst >= src {
					dst++
				}
				pairs[i] = ftl.Pair{Dst: dst, Src: src, Len: 1}
			}
			_, err := light.Share(pairs)
			keep(err)
		}) / 32
	})
	keep(light.CheckInvariants())

	aged, span, err := build(0.9)
	if err != nil {
		return err
	}
	nsPerOp(span/2, overwrite(aged, span)) // churn into GC steady state, untimed
	m["ftl.write_gc_wall_ns"] = medianOf(3, func() float64 { return nsPerOp(ops, overwrite(aged, span)) })
	keep(aged.CheckInvariants())
	return fe.err
}
