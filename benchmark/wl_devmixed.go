package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// dev-mixed: an aged die-scheduled drive under a device-level mix, after
// "How to Write to SSDs" (arXiv 2603.09927): write/read/remap mix, queue
// depth and GC pressure varied together. Eight closed-loop scheduler
// clients issue n%8 -> 4 WritePage, 2 ReadPage, 1 one-pair SHARE, 1 Trim
// over the 90 % of the LPN space aging filled. Nothing above the device
// runs, so an FTL, GC, cost-plan or scheduler change shows here and must
// show nothing on serve-tenants.
//
// The baseline leg is the host without SHARE: each remap becomes a read
// of the source page and a write of it to the destination.
var devMixed = workloadImpl{
	name:      "dev-mixed",
	baseFrac:  0.25,
	baseline:  "SHARE as read+write copy",
	paperGain: "no device-only figure; >1 means a remap beats a page copy",
	leg:       devMixedLeg,
	setupOnly: func(rc *runCtx) (float64, error) {
		rig, err := devMixedSetup(rc, noSpan)
		return rig.setupS, err
	},
	attribute: devMixedAttribution,
}

const (
	mixedClients = 8
	// mixedOpsPerSecond is the whole op rate of the SHARE leg on the
	// reference box; the count per client is fixed from it.
	mixedOpsPerSecond = 380_000
	mixedChunkOps     = 2000 // wall chunk: ~5 ms
	mixedFill         = 0.9
)

func mixedBlocks(rc *runCtx) int {
	if rc.tiny {
		return 128 // the smallest 4-die array that ages to 90 % without filling up
	}
	return 512
}

type mixedRig struct {
	dev device
	// t0 is the device-free horizon: the virtual time at which the aging
	// traffic has drained, where every client starts and every statistic
	// is reset.
	t0           int64
	setupS, ageS float64
}

func devMixedSetup(rc *runCtx, parent int32) (mixedRig, error) {
	ph := rc.tr.open(parent, "harness", phSetup, 0)
	w0 := time.Now()
	dev, err := newMixedDevice(mixedBlocks(rc))
	if err != nil {
		return mixedRig{}, err
	}
	setup := newSoloTask("setup")
	age := rc.tr.open(ph, "ssd", "age", 0)
	a0 := time.Now()
	err = dev.age(setup, mixedFill, 0.3, rc.seed)
	ageS := time.Since(a0).Seconds()
	rc.tr.close(age, setup.Now())
	if err != nil {
		return mixedRig{}, err
	}
	dev.resetStats()
	rc.tr.close(ph, setup.Now())
	return mixedRig{dev, setup.Now(), time.Since(w0).Seconds(), ageS}, nil
}

// Shadow states of an LPN. Anything above shadowJunk is the stamp of the
// last write the harness made there.
const (
	shadowUnmapped uint64 = 0 // trimmed: reads zeros, SHARE from it is refused
	shadowJunk     uint64 = 1 // mapped, content from aging or copied from such a page
)

// stampPage marks a page with the write's stamp at eight places; the
// oracle needs no more to tell a misdirected or stale page.
func stampPage(p []byte, stamp uint64) {
	for off := 0; off < len(p); off += len(p) / 8 {
		for b := 0; b < 8; b++ {
			p[off+b] = byte(stamp >> (8 * b))
		}
	}
}

func pageStamp(p []byte) (uint64, bool) {
	var first uint64
	for off := 0; off < len(p); off += len(p) / 8 {
		var s uint64
		for b := 0; b < 8; b++ {
			s |= uint64(p[off+b]) << (8 * b)
		}
		if off == 0 {
			first = s
		} else if s != first {
			return 0, false
		}
	}
	return first, true
}

func devMixedLeg(rc *runCtx, res *workloadResult, share bool, frac float64, parent int32) (*legResult, error) {
	rig, err := devMixedSetup(rc, parent)
	if err != nil {
		return nil, err
	}
	dev, t0 := rig.dev, rig.t0
	perClient := rc.ops(mixedOpsPerSecond/mixedClients, frac, 400)
	total := perClient * mixedClients
	span := int(float64(dev.capacity()) * mixedFill)
	shadow := make([]uint64, span)
	for i := range shadow {
		shadow[i] = shadowJunk
	}
	nextStamp := shadowJunk
	lats := make([][]int64, mixedClients)
	var errs errTally
	bad := errs.keep

	tr := rc.tr
	ph := tr.open(parent, "harness", phMeasure, t0)
	opIDs := [4]opID{tr.op("ssd", "write"), tr.op("ssd", "read"), tr.op("ssd", "share"), tr.op("ssd", "trim")}
	sched := newScheduler()
	clock := newOpClock(mixedChunkOps, total)
	for c := 0; c < mixedClients; c++ {
		lats[c] = make([]int64, 0, perClient)
		sched.Go(fmt.Sprintf("client%d", c), func(t *task) {
			t.AdvanceTo(t0)
			rng := rand.New(rand.NewSource(rc.seed*7919 + int64(c)))
			page := make([]byte, dev.pageSize())
			one := make([]pair, 1)
			for i := 0; i < perClient; i++ {
				v0, w0 := t.Now(), tr.now()
				lpn := uint32(rng.Intn(span))
				kind := 0
				switch n := i % 8; {
				case n < 4:
					nextStamp++
					shadow[lpn] = nextStamp
					stampPage(page, nextStamp)
					if err := dev.write(t, lpn, page); err != nil {
						bad(err)
					}
				case n < 6:
					kind = 1
					want := shadow[lpn]
					if err := dev.read(t, lpn, page); err != nil {
						bad(err)
					} else if got, ok := pageStamp(page); want != shadowJunk && (!ok || got != want) {
						bad(fmt.Errorf("read lpn %d: stamp %d, shadow %d", lpn, got, want))
					}
				case n == 6:
					kind = 2
					// src != dst: equal LPNs are refused as overlapping.
					dst := uint32(rng.Intn(span - 1))
					if dst >= lpn {
						dst++
					}
					// The FTL applies a command before the call first yields, so
					// the shadow is updated just ahead of each call: between the
					// two no other client can run.
					src := shadow[lpn]
					if share {
						one[0] = pair{Dst: dst, Src: lpn, Len: 1}
						if src != shadowUnmapped {
							shadow[dst] = src
						}
						if err := dev.share(t, one); (src == shadowUnmapped) != isUnmapped(err) || (src != shadowUnmapped && err != nil) {
							bad(fmt.Errorf("share lpn %d (shadow %d): %v", lpn, src, err))
						}
					} else if err := dev.read(t, lpn, page); err != nil {
						bad(err)
					} else {
						shadow[dst] = src // a copied trimmed page is a page of zeros: stamp 0 again
						if err := dev.write(t, dst, page); err != nil {
							bad(err)
						}
					}
				default:
					kind = 3
					shadow[lpn] = shadowUnmapped
					if err := dev.trim(t, lpn); err != nil {
						bad(err)
					}
				}
				lats[c] = append(lats[c], t.Now()-v0)
				clock.tick()
				tr.call(ph, opIDs[kind], w0, tr.now(), v0, t.Now())
			}
		})
	}
	runtime.GC()
	host0 := readHost()
	wall0 := time.Now()
	end := sched.Run()
	wallS := time.Since(wall0).Seconds()
	host1 := readHost()
	tr.close(ph, end)
	cnt := dev.counters()

	res.Attempted += int64(total)
	if errs.n > 0 {
		res.fail(errs.n, "dev-mixed: %d ops failed, first: %v", errs.n, errs.err)
	}

	l := newLegResult()
	l.ops, l.wallOps, l.wallS = int64(total), int64(total), wallS
	l.virtS = float64(end-t0) / virtSecond
	l.setupS = rig.setupS
	l.hostWrites, l.nandPrograms = cnt.hostWrites, cnt.programs
	l.wallP50us, l.wallP99us, l.fifths = chunkStats(clock.chunks())
	all := make([]int64, 0, total)
	for _, c := range lats {
		all = append(all, c...)
	}
	slices.Sort(all)
	l.virtP50ms, l.virtP99ms = float64(percentile(all, 50))/1e6, float64(percentile(all, 99))/1e6
	l.samples["virtual op latencies"] = len(all)
	l.samples["wall chunks of 2000 ops"] = len(clock.chunks())
	// Honest window: no latency may exceed the window it was taken in.
	if max := all[len(all)-1]; max > end-t0 {
		res.fail(1, "dev-mixed: a virtual latency of %d ns exceeds the %d ns window", max, end-t0)
	}
	hostMetrics(l.layer, host0, host1, l.ops)
	deviceMetrics(l.layer, cnt, l.ops, end-t0)
	l.counts = map[string]float64{
		"writes": float64(total) / 2, "reads": float64(total) / 4, "shares": float64(total) / 8, "trims": float64(total) / 8,
		"programs": float64(cnt.programs), "nand_reads": float64(cnt.nandReads), "host_writes": float64(cnt.hostWrites),
	}
	if tr != nil {
		l.layer["ssd.age_wall_s"] = rig.ageS
	}

	// Oracle: read back a seeded 2 % of the LPNs against the shadow, then
	// the FTL's own invariants.
	vph := tr.open(parent, "harness", phVerify, end)
	vt := newSoloTask("verify")
	vt.AdvanceTo(end)
	vrng := rand.New(rand.NewSource(rc.seed + 99))
	page := make([]byte, dev.pageSize())
	checks := span / 50
	var mismatches int64
	for i := 0; i < checks; i++ {
		lpn := uint32(vrng.Intn(span))
		want := shadow[lpn]
		if err := dev.read(vt, lpn, page); err != nil {
			mismatches++
		} else if got, ok := pageStamp(page); want != shadowJunk && (!ok || got != want) {
			mismatches++
		}
	}
	res.Attempted += int64(checks) + 1
	if mismatches > 0 {
		res.fail(mismatches, "dev-mixed: %d of %d read-back pages disagree with the shadow", mismatches, checks)
	}
	if err := dev.checkInvariants(); err != nil {
		res.fail(1, "dev-mixed: FTL invariants: %v", err)
	}
	tr.close(vph, vt.Now())
	return l, nil
}

// devMixedAttribution prices the FTL work by the probes that match this
// drive's state (writes by the 90 %-full probe, where GC runs every few
// writes) and the device front-end by what the ssd probe costs over the
// ftl one. Scheduler handoffs have no public count: the row charges one
// per op, which yield elision makes an upper bound.
func devMixedAttribution(l *legResult, p metricSet) []attribution {
	c := l.counts
	front := p["ssd.write_wall_ns"] - p["ftl.write_wall_ns"]
	return []attribution{
		row("ftl.Write, GC-heavy", "", c["host_writes"], p["ftl.write_gc_wall_ns"]),
		row("nand.Program (incl. GC copies)", "ftl.Write, GC-heavy", c["programs"], p["nand.program_wall_ns"]),
		row("nand.Read (GC copies' share)", "ftl.Write, GC-heavy", c["nand_reads"]-c["reads"], p["nand.read_wall_ns"]),
		row("ftl.Read", "", c["reads"], p["ftl.read_wall_ns"]),
		row("ftl.Share + Trim, per pair", "", c["shares"]+c["trims"], p["ftl.share_wall_ns"]),
		row("ssd front-end (serve, cost plan, recorder)", "", c["writes"]+c["reads"]+c["shares"]+c["trims"], front),
		row("sim handoff, were every op to yield once", "", c["writes"]+c["reads"]+c["shares"]+c["trims"], p["sim.handoff_wall_ns"]),
	}
}
