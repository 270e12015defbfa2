package main

import (
	"math/rand"
	"sync"
	"time"

	"share/internal/metrics"
	"share/internal/nand"
	"share/internal/sim"
	"share/internal/ssd"
)

// Adapter for internal/ssd (and the internal/metrics recorder it owns).
// Touches: ssd.DefaultConfig, ssd.Config{Geometry.Channels,
// Geometry.DiesPerChannel, Timing, FTL.PowerCapacitor}, ssd.New,
// Device.{Age, WritePage, ReadPage, Share, Trim, Capacity, CapacityBytes,
// PageSize, ResetStats, Stats, Metrics, DieTelemetry, ChannelTelemetry,
// FTLForTest}, ssd.Pair, ssd.Stats.{FTL, Chip} (fields listed in
// layer_ftl.go and layer_nand.go), ssd.DieStat.{BusyNs, WaitNs},
// ssd.ChannelStat.BusyNs, metrics.Recorder.Latency, metrics.Cmd{Read,
// Write, Share, Flush, Trim}, stats.Summary.{Count, Mean, P50, P99}.

type device struct{ d *ssd.Device }

type pair = ssd.Pair

// newMixedDevice is dev-mixed's drive: die-scheduled, 4 channels x 1 die.
func newMixedDevice(blocks int) (device, error) {
	cfg := ssd.DefaultConfig(blocks)
	cfg.Geometry.Channels = 4
	cfg.Geometry.DiesPerChannel = 1
	d, err := ssd.New("mixed", cfg)
	return device{d}, err
}

// newPaperDataDevice is the two paper workloads' data drive, prepared as
// §5.1 and internal/bench/rig.go do: legacy geometry, filled and churned,
// then discarded whole the way mke2fs would before the file system goes
// down, so the free-block pool starts low and GC runs during the window.
func newPaperDataDevice(t *task, blocks int, seed int64) (device, error) {
	dev, err := newPaperDevice(blocks)
	if err != nil {
		return device{}, err
	}
	if err := dev.age(t, 0.95, 0.3, seed); err != nil {
		return device{}, err
	}
	return dev, dev.d.Trim(t, 0, dev.capacity())
}

// newPaperDevice is the same drive fresh: the paper experiments' legacy
// (lump-sum timing) geometry.
func newPaperDevice(blocks int) (device, error) {
	d, err := ssd.New("openssd", ssd.DefaultConfig(blocks))
	return device{d}, err
}

// newLogDevice is the PM853T-like redo-log drive of internal/bench/rig.go:
// fast and capacitor-backed.
func newLogDevice(blocks int) (device, error) {
	cfg := ssd.DefaultConfig(blocks)
	cfg.Timing = nand.Timing{
		ReadPage: 20 * sim.Microsecond,
		Program:  50 * sim.Microsecond,
		Erase:    500 * sim.Microsecond,
		Transfer: 5 * sim.Microsecond,
	}
	cfg.FTL.PowerCapacitor = true
	d, err := ssd.New("logdev", cfg)
	return device{d}, err
}

func (d device) age(t *task, fill, churn float64, seed int64) error {
	return d.d.Age(t, fill, churn, seed)
}
func (d device) write(t *task, lpn uint32, p []byte) error { return d.d.WritePage(t, lpn, p) }
func (d device) read(t *task, lpn uint32, p []byte) error  { return d.d.ReadPage(t, lpn, p) }
func (d device) share(t *task, ps []pair) error            { return d.d.Share(t, ps) }
func (d device) trim(t *task, lpn uint32) error            { return d.d.Trim(t, lpn, 1) }
func (d device) capacity() int                             { return d.d.Capacity() }
func (d device) capacityBytes() int64                      { return d.d.CapacityBytes() }
func (d device) pageSize() int                             { return d.d.PageSize() }
func (d device) resetStats()                               { d.d.ResetStats() }
func (d device) checkInvariants() error                    { return d.d.FTLForTest().CheckInvariants() }

// devCounters is everything the harness reads from a device, for the
// epoch since resetStats.
type devCounters struct {
	hostReads, hostWrites, sharePairs, forcedCopies int64
	gcEvents, copybacks, gcStallNs                  int64
	programs, nandReads, erases                     int64

	writeP50us, writeP99us, readP50us, readP99us float64
	shareP99us, flushP99us                       float64
	cmdLatNs                                     float64 // virtual latency summed over every command
	dieBusy, dieWait, chanBusy                   []int64
}

func (d device) counters() devCounters {
	st := d.d.Stats()
	c := devCounters{
		hostReads: st.FTL.HostReads, hostWrites: st.FTL.HostWrites,
		sharePairs: st.FTL.SharePairs, forcedCopies: st.FTL.ForcedCopies,
		gcEvents: st.FTL.GCEvents, copybacks: st.FTL.Copybacks, gcStallNs: st.FTL.GCStallNanos,
		programs: st.Chip.Programs, nandReads: st.Chip.Reads, erases: st.Chip.Erases,
	}
	// lat reads one command class's virtual latency summary (kept in
	// milliseconds) and adds the class's total to cmdLatNs.
	rec := d.d.Metrics()
	lat := func(cmd metrics.Cmd) (p50us, p99us float64) {
		s := rec.Latency(cmd)
		c.cmdLatNs += s.Mean * 1e6 * float64(s.Count)
		return s.P50 * 1e3, s.P99 * 1e3
	}
	c.readP50us, c.readP99us = lat(metrics.CmdRead)
	c.writeP50us, c.writeP99us = lat(metrics.CmdWrite)
	_, c.shareP99us = lat(metrics.CmdShare)
	_, c.flushP99us = lat(metrics.CmdFlush)
	lat(metrics.CmdTrim)
	for _, ds := range d.d.DieTelemetry() {
		c.dieBusy = append(c.dieBusy, ds.BusyNs)
		c.dieWait = append(c.dieWait, ds.WaitNs)
	}
	for _, cs := range d.d.ChannelTelemetry() {
		c.chanBusy = append(c.chanBusy, cs.BusyNs)
	}
	return c
}

// poolDevCounters pools the devices of many short rounds into one:
// counters add up, latency percentiles take the median round.
func poolDevCounters(rounds []devCounters) devCounters {
	var p devCounters
	addInto := func(dst *[]int64, src []int64) {
		if *dst == nil {
			*dst = make([]int64, len(src))
		}
		for i, v := range src {
			(*dst)[i] += v
		}
	}
	var wr50, wr99, rd50, rd99, sh99, fl99 []float64
	for _, c := range rounds {
		p.hostReads += c.hostReads
		p.hostWrites += c.hostWrites
		p.sharePairs += c.sharePairs
		p.forcedCopies += c.forcedCopies
		p.gcEvents += c.gcEvents
		p.copybacks += c.copybacks
		p.gcStallNs += c.gcStallNs
		p.programs += c.programs
		p.nandReads += c.nandReads
		p.erases += c.erases
		p.cmdLatNs += c.cmdLatNs
		addInto(&p.dieBusy, c.dieBusy)
		addInto(&p.dieWait, c.dieWait)
		addInto(&p.chanBusy, c.chanBusy)
		wr50, wr99 = append(wr50, c.writeP50us), append(wr99, c.writeP99us)
		rd50, rd99 = append(rd50, c.readP50us), append(rd99, c.readP99us)
		sh99, fl99 = append(sh99, c.shareP99us), append(fl99, c.flushP99us)
	}
	p.writeP50us, p.writeP99us = median(wr50), median(wr99)
	p.readP50us, p.readP99us = median(rd50), median(rd99)
	p.shareP99us, p.flushP99us = median(sh99), median(fl99)
	return p
}

func ssdMetrics(m metricSet, c devCounters) {
	m["ssd.write_virt_p50_us"] = c.writeP50us
	m["ssd.write_virt_p99_us"] = c.writeP99us
	m["ssd.read_virt_p50_us"] = c.readP50us
	m["ssd.read_virt_p99_us"] = c.readP99us
	m["ssd.share_virt_p99_us"] = c.shareP99us
	m["ssd.flush_virt_p99_us"] = c.flushP99us
	var wait int64
	for _, w := range c.dieWait {
		wait += w
	}
	m["ssd.die_wait_virt_frac"] = ratio(float64(wait), c.cmdLatNs)
}

// deviceMetrics is the three device layers' counter metrics at once.
func deviceMetrics(m metricSet, c devCounters, ops, windowNs int64) {
	nandMetrics(m, c, ops, windowNs)
	ftlMetrics(m, c, ops)
	ssdMetrics(m, c)
}

// probeSSD drives a half-full, lightly churned die-scheduled device from
// one solo task, then the same writes from two real goroutines: the
// second number over the first is what Device.mu costs concurrent
// submitters (the serve-tenants shape).
func probeSSD(rc *runCtx, m metricSet) error {
	ops, seed := rc.probeOps(60_000), rc.seed
	dev, err := newMixedDevice(256)
	if err != nil {
		return err
	}
	t := newSoloTask("probe")
	if err := dev.age(t, 0.5, 0.2, seed); err != nil {
		return err
	}
	span := dev.capacity() / 2
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, dev.pageSize())
	var fe errTally
	keep := fe.keep
	m["ssd.write_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(int) { keep(dev.write(t, uint32(rng.Intn(span)), buf)) })
	})
	m["ssd.read_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(int) { keep(dev.read(t, uint32(rng.Intn(span)), buf)) })
	})
	one := make([]pair, 1)
	m["ssd.share_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(int) {
			src := uint32(rng.Intn(span))
			dst := uint32(rng.Intn(span - 1))
			if dst >= src {
				dst++
			}
			one[0] = pair{Dst: dst, Src: src, Len: 1}
			keep(dev.share(t, one))
		})
	})
	m["ssd.write_wall_ns_2g"] = medianOf(3, func() float64 {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		w0 := time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				gt := newSoloTask("probe2g")
				gt.AdvanceTo(t.Now())
				grng := rand.New(rand.NewSource(seed + int64(g) + 1))
				gbuf := make([]byte, dev.pageSize())
				for i := 0; i < ops/2; i++ {
					if err := dev.write(gt, uint32(grng.Intn(span)), gbuf); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		keep(errs[0])
		keep(errs[1])
		return float64(time.Since(w0)) / float64(ops)
	})
	keep(dev.checkInvariants())
	return fe.err
}
