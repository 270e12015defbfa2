package main

import (
	"runtime"
	"time"

	"share/internal/linkbench"
	"share/internal/stats"
)

// linkbench-innodb: the paper's Fig. 5/6 and Table 1 — LinkBench's
// Facebook mix (69 % reads) from 16 closed-loop clients against mini-
// InnoDB on an aged drive, the database about 28 times the buffer pool,
// the redo log on its own capacitor-backed drive. The only workload on
// btree, bufpool, wal and innodb, and the one that overwrites pages in
// place through fsim. The baseline leg is the stock doublewrite buffer.
//
// This file is also the adapter for the load generator, internal/
// linkbench (Config{Nodes, Clients, Requests, Warmup, Seed}, Load, Run,
// Result.{Ops, Elapsed, Throughput, Latency}) and for the histograms it
// returns (stats.NewHistogram, Histogram.{Merge, Percentile, Max, Count}).
var linkbenchInnodb = workloadImpl{
	name:      "linkbench-innodb",
	baseFrac:  0.5,
	baseline:  "doublewrite buffer on",
	paperGain: ">2x at every buffer size; the lump-sum timing model overprices reads, ROADMAP item 3",
	leg:       linkbenchLeg,
	setupOnly: func(rc *runCtx) (float64, error) {
		rig, err := linkbenchSetup(rc, true, noSpan)
		return rig.setupS, err
	},
	attribute: linkbenchAttribution,
}

const (
	linkClients = 16
	// linkOpsPerSecond is the SHARE leg's wall rate on the reference box,
	// warm-up included; a tenth of every client's requests is warm-up.
	linkOpsPerSecond = 52_000
	linkSampleEvery  = 25 * time.Millisecond
)

type linkRig struct {
	data, log device
	fs        filesystem
	eng       engine
	cfg       linkbench.Config
	setupS    float64
	loadS     float64
}

// linkbenchSetup ages the data drive, lays down the file system, opens
// the engine and loads the graph: internal/bench/rig.go's LinkBench rig
// at scale 0.05 (400-block data drive, 200-block log drive, 2.5 MiB
// pool), the graph sized to 38 % of the drive as 1.5 GiB is of 4 GiB.
func linkbenchSetup(rc *runCtx, share bool, parent int32) (linkRig, error) {
	dataBlocks, logBlocks, pool := 400, 200, int64(2560<<10)
	if rc.tiny {
		dataBlocks, logBlocks, pool = 64, 64, 256<<10
	}
	tr := rc.tr
	ph := tr.open(parent, "harness", phSetup, 0)
	w0 := time.Now()
	t := newSoloTask("setup")
	var r linkRig
	var err error
	if r.data, err = newPaperDataDevice(t, dataBlocks, rc.seed); err != nil {
		return r, err
	}
	if r.fs, err = formatFS(t, r.data); err != nil {
		return r, err
	}
	if r.log, err = newLogDevice(logBlocks); err != nil {
		return r, err
	}
	if r.eng, err = openInnodb(t, r.fs, r.data, r.log, share, pool); err != nil {
		return r, err
	}
	tr.close(ph, t.Now())
	r.cfg = linkbench.Config{
		Nodes:   int(r.data.capacityBytes() * 38 / 100 / 1500), // 1500 B per node, measured by internal/bench
		Clients: linkClients,
		Seed:    rc.seed,
	}
	lph := tr.open(parent, "linkbench", phLoad, t.Now())
	l0 := time.Now()
	err = linkbench.Load(t, r.eng.e, r.cfg)
	r.loadS = time.Since(l0).Seconds()
	tr.close(lph, t.Now())
	r.setupS = time.Since(w0).Seconds()
	return r, err
}

func linkbenchLeg(rc *runCtx, res *workloadResult, share bool, frac float64, parent int32) (*legResult, error) {
	rig, err := linkbenchSetup(rc, share, parent)
	if err != nil {
		return nil, err
	}
	perClient := rc.ops(linkOpsPerSecond/linkClients, frac, 220)
	rig.cfg.Warmup = perClient / 11
	rig.cfg.Requests = perClient - rig.cfg.Warmup
	total := int64(perClient) * linkClients

	// linkbench.Run starts its clients at virtual 0 while the drives are
	// busy until set-up's end; its warm-up requests absorb that jump and
	// its window opens after them, so the window is honest as long as
	// warm-up is not zero — which the check below would catch.
	rig.data.resetStats()
	rig.log.resetStats()
	before := rig.eng.counters()
	meta0 := rig.fs.metaWrites()
	tr := rc.tr
	ph := tr.open(parent, "linkbench", phMeasure, 0)
	runtime.GC()
	host0 := readHost()
	sampler := startSampler(linkSampleEvery, rig.eng.commits)
	wall0 := time.Now()
	out, err := linkbench.Run(rig.eng.e, rig.cfg)
	wallS := time.Since(wall0).Seconds()
	chunks := sampler.finish(total)
	host1 := readHost()
	res.Attempted += total
	if err != nil {
		return nil, err // Run stops at the first failed request
	}
	tr.close(ph, out.Elapsed)
	after := rig.eng.counters()
	data, log := rig.data.counters(), rig.log.counters()

	l := newLegResult()
	l.ops, l.wallOps, l.wallS = out.Ops, total, wallS
	l.virtS = float64(out.Elapsed) / virtSecond
	l.setupS = rig.setupS
	l.hostWrites, l.nandPrograms = data.hostWrites, data.programs+log.programs
	l.wallP50us, l.wallP99us, l.fifths = chunkStats(chunks)
	merged := stats.NewHistogram()
	for _, h := range out.Latency {
		merged.Merge(h)
	}
	l.virtP50ms, l.virtP99ms = float64(merged.Percentile(50))/1e6, float64(merged.Percentile(99))/1e6
	l.samples["virtual request latencies"] = merged.Count()
	l.samples["wall chunks of 25 ms"] = len(chunks)
	if merged.Max() > out.Elapsed {
		res.fail(1, "linkbench-innodb: a virtual latency of %d ns exceeds the %d ns window", merged.Max(), out.Elapsed)
	}

	// The device and engine counters cover warm-up too, as Run does.
	hostMetrics(l.layer, host0, host1, total)
	deviceMetrics(l.layer, data, total, 0)
	fsimMetrics(l.layer, rig.fs.metaWrites()-meta0, data.hostWrites, total)
	engineMetrics(l.layer, before, after, total)
	if tr != nil {
		l.layer["innodb.load_wall_s"] = rig.loadS
	}
	d := after.pool.sub(before.pool)
	l.counts = map[string]float64{
		"pool_hits": float64(d.hits), "pool_misses": float64(d.misses), "flushed": float64(d.flushed),
		"commits": float64(after.commits - before.commits), "wal_pages": float64(after.wal.pages - before.wal.pages),
		"share_pairs": float64(after.sharePairs - before.sharePairs),
	}
	mode := "DWB-On"
	if share {
		mode = "SHARE"
	}
	res.note("%s leg: %d host page writes on the data drive = %.1f turnovers of its %d pages; pool hit ratio %.3f",
		mode, data.hostWrites, ratio(float64(data.hostWrites), float64(rig.data.capacity())), rig.data.capacity(), l.layer["bufpool.hit_ratio"])

	// Oracle: the file system checks clean, the engine never degraded and
	// both drives' FTLs hold their invariants.
	vph := tr.open(parent, "harness", phVerify, 0)
	res.Attempted += 4
	if err := rig.fs.fsck(); err != nil {
		res.fail(1, "linkbench-innodb: fsck: %v", err)
	}
	if rig.eng.degraded() {
		res.fail(1, "linkbench-innodb: engine degraded to read-only")
	}
	if err := rig.data.checkInvariants(); err != nil {
		res.fail(1, "linkbench-innodb: data drive invariants: %v", err)
	}
	if err := rig.log.checkInvariants(); err != nil {
		res.fail(1, "linkbench-innodb: log drive invariants: %v", err)
	}
	tr.close(vph, 0)
	return l, nil
}

func linkbenchAttribution(l *legResult, p metricSet) []attribution {
	c := l.counts
	return []attribution{
		row("bufpool.Get hit", "", c["pool_hits"], p["bufpool.get_hit_wall_ns"]),
		row("bufpool.Get miss (evict + fsim read)", "", c["pool_misses"], p["bufpool.get_miss_wall_ns"]),
		row("fsim.ReadAt", "bufpool.Get miss (evict + fsim read)", c["pool_misses"], p["fsim.read_wall_ns"]),
		row("flushed page: fsim.WriteAt", "", c["flushed"], p["fsim.pwrite_wall_ns"]),
		row("flushed page: fsim.ShareRange", "", c["share_pairs"], p["fsim.share_range_wall_ns"]),
		row("innodb write txn (one-row probe)", "", c["commits"], p["innodb.commit_wall_ns"]),
		row("wal page append + sync", "innodb write txn (one-row probe)", c["wal_pages"], p["wal.append_sync_wall_ns"]),
	}
}
