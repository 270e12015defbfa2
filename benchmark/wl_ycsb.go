package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"share/internal/ycsb"
)

// ycsb-couch: the paper's Fig. 7 and Table 2 together — YCSB workload F
// (read-modify-write, zipfian keys) from one client against the append-
// only couch store at batch size 1, compacting inline whenever the stale
// ratio trips, through dozens of compactions. The same drive and file
// system as linkbench-innodb used the other way: append + allocate +
// ShareRange + journal commit per op and remap-heavy FTL traffic instead
// of in-place writes. The baseline leg is stock copy-on-write couchstore.
//
// The loop is the harness's own (not ycsb.Run) so that every Get, Set and
// Compact is a call it can time. This file is also the adapter for
// internal/ycsb: ycsb.Key, ycsb.Load, ycsb.Config{Records, ValueSize, Seed}.
var ycsbCouch = workloadImpl{
	name:      "ycsb-couch",
	baseFrac:  1.0 / 3,
	baseline:  "copy-on-write commits and copying compaction",
	paperGain: "3.45x at batch size 1",
	leg:       ycsbLeg,
	setupOnly: func(rc *runCtx) (float64, error) {
		rig, err := ycsbSetup(rc, true, noSpan)
		return rig.setupS, err
	},
	attribute: ycsbAttribution,
}

const (
	ycsbOpsPerSecond = 34_000 // SHARE leg on the reference box
	ycsbChunkOps     = 160    // wall chunk: ~5 ms
	ycsbValueSize    = 4000
	ycsbZipfS        = 1.1
)

type ycsbRig struct {
	dev     device
	fs      filesystem
	st      store
	t       *task
	records int
	setupS  float64
}

// ycsbSetup ages the drive, lays down the file system, opens the store
// and bulk-loads a quarter of the drive's pages worth of 4000-byte
// records (live data ~25 % of the drive, as 250k x 4 KiB is of 4 GiB).
func ycsbSetup(rc *runCtx, share bool, parent int32) (ycsbRig, error) {
	blocks := 400
	if rc.tiny {
		blocks = 64
	}
	tr := rc.tr
	ph := tr.open(parent, "harness", phSetup, 0)
	w0 := time.Now()
	r := ycsbRig{t: newSoloTask("client")}
	var err error
	if r.dev, err = newPaperDataDevice(r.t, blocks, rc.seed); err != nil {
		return r, err
	}
	if r.fs, err = formatFS(r.t, r.dev); err != nil {
		return r, err
	}
	r.records = r.dev.capacity() / 4
	if r.st, err = openCouch(r.t, r.fs, share, r.records); err != nil {
		return r, err
	}
	tr.close(ph, r.t.Now())
	lph := tr.open(parent, "ycsb", phLoad, r.t.Now())
	err = ycsb.Load(r.t, r.st.s, ycsb.Config{Records: r.records, ValueSize: ycsbValueSize, Seed: rc.seed})
	tr.close(lph, r.t.Now())
	r.setupS = time.Since(w0).Seconds()
	return r, err
}

// stampValue heads a value with the record it belongs to and the number
// of the update that wrote it; the rest of the 4000 bytes is whatever the
// buffer held, which the store has to carry all the same.
func stampValue(v []byte, record int, version uint32) {
	binary.LittleEndian.PutUint32(v[0:], uint32(record))
	binary.LittleEndian.PutUint32(v[4:], version)
	binary.LittleEndian.PutUint32(v[len(v)-4:], version)
}

func checkValue(v []byte, record int, version uint32) error {
	if len(v) != ycsbValueSize {
		return fmt.Errorf("record %d: %d bytes", record, len(v))
	}
	if version == 0 {
		return nil // still the loader's random value
	}
	if r, a, b := binary.LittleEndian.Uint32(v[0:]), binary.LittleEndian.Uint32(v[4:]), binary.LittleEndian.Uint32(v[len(v)-4:]); r != uint32(record) || a != version || b != version {
		return fmt.Errorf("record %d: holds record %d versions %d/%d, last written %d", record, r, a, b, version)
	}
	return nil
}

func ycsbLeg(rc *runCtx, res *workloadResult, share bool, frac float64, parent int32) (*legResult, error) {
	rig, err := ycsbSetup(rc, share, parent)
	if err != nil {
		return nil, err
	}
	t, st := rig.t, rig.st
	ops := rc.ops(ycsbOpsPerSecond, frac, 600)
	versions := make([]uint32, rig.records)
	lats := make([]int64, 0, ops)
	var comps []compaction
	var compWallNs int64
	var errs errTally
	bad := errs.keep

	// One task did everything so far, so its clock is the device-free
	// horizon: nothing is queued on the drive beyond it.
	t0 := t.Now()
	rig.dev.resetStats()
	before := st.counters()
	meta0 := rig.fs.metaWrites()
	tr := rc.tr
	ph := tr.open(parent, "harness", phMeasure, t0)
	getID, setID, compactID := tr.op("couch", "get"), tr.op("couch", "set"), tr.op("couch", "compact")
	rng := rand.New(rand.NewSource(rc.seed + 1))
	zipf := rand.NewZipf(rng, ycsbZipfS, 8, uint64(rig.records-1))
	val := make([]byte, ycsbValueSize)
	clock := newOpClock(ycsbChunkOps, ops)
	runtime.GC()
	host0 := readHost()
	wall0 := time.Now()
	for i := 0; i < ops; i++ {
		record := int(zipf.Uint64() * 2654435761 % uint64(rig.records))
		key := ycsb.Key(record)
		v0, w0 := t.Now(), tr.now()
		got, ok, err := st.get(t, key)
		v1, w1 := t.Now(), tr.now()
		tr.call(ph, getID, w0, w1, v0, v1)
		switch {
		case err != nil:
			bad(err)
		case !ok:
			bad(fmt.Errorf("record %d not found", record))
		default:
			if err := checkValue(got, record, versions[record]); err != nil {
				bad(err)
			}
		}
		versions[record]++
		stampValue(val, record, versions[record])
		if err := st.set(t, key, val); err != nil {
			bad(err)
		}
		tr.call(ph, setID, w1, tr.now(), v1, t.Now())
		lats = append(lats, t.Now()-v0)
		if st.needsCompaction() {
			cv0, cw0, c0 := t.Now(), tr.now(), time.Now()
			c, err := st.compact(t)
			if err != nil {
				bad(err)
			}
			compWallNs += int64(time.Since(c0))
			comps = append(comps, c)
			tr.call(ph, compactID, cw0, tr.now(), cv0, t.Now())
		}
		clock.tick()
	}
	if err := st.commit(t); err != nil {
		bad(err)
	}
	wallS := time.Since(wall0).Seconds()
	host1 := readHost()
	end := t.Now()
	tr.close(ph, end)
	cnt := rig.dev.counters()
	after := st.counters()

	res.Attempted += int64(ops)
	if errs.n > 0 {
		res.fail(errs.n, "ycsb-couch: %d ops failed, first: %v", errs.n, errs.err)
	}

	l := newLegResult()
	l.ops, l.wallOps, l.wallS = int64(ops), int64(ops), wallS
	l.virtS = float64(end-t0) / virtSecond
	l.setupS = rig.setupS
	l.hostWrites, l.nandPrograms = cnt.hostWrites, cnt.programs
	l.wallP50us, l.wallP99us, l.fifths = chunkStats(clock.chunks())
	slices.Sort(lats)
	l.virtP50ms, l.virtP99ms = float64(percentile(lats, 50))/1e6, float64(percentile(lats, 99))/1e6
	l.samples["virtual op latencies"] = len(lats)
	l.samples["wall chunks of 160 ops"] = len(clock.chunks())
	l.samples["compactions"] = len(comps)
	if max := lats[len(lats)-1]; max > end-t0 {
		res.fail(1, "ycsb-couch: a virtual latency of %d ns exceeds the %d ns window", max, end-t0)
	}

	hostMetrics(l.layer, host0, host1, l.ops)
	deviceMetrics(l.layer, cnt, l.ops, 0)
	fsimMetrics(l.layer, rig.fs.metaWrites()-meta0, cnt.hostWrites, l.ops)
	couchMetrics(l.layer, before, after, l.ops)
	// Compaction is the background work whose stalls a median hides, so
	// it is reported on its own, per compaction.
	if n := float64(len(comps)); n > 0 {
		var virt, docs, bytes int64
		for _, c := range comps {
			virt, docs, bytes = virt+c.virtNs, docs+c.docs, bytes+c.bytes
			if c.virtNs > end-t0 {
				res.fail(1, "ycsb-couch: a compaction of %d virtual ns exceeds the %d ns window", c.virtNs, end-t0)
			}
		}
		l.layer["couch.compact_virt_s"] = float64(virt) / virtSecond / n
		l.layer["couch.compact_wall_s"] = float64(compWallNs) / 1e9 / n
		l.layer["couch.compact_bytes_per_doc"] = ratio(float64(bytes), float64(docs))
	}
	l.counts = map[string]float64{"ops": float64(ops), "compactions": float64(len(comps)),
		"commits": float64(after.commits - before.commits), "share_pairs": float64(after.sharePairs - before.sharePairs),
		"host_writes": float64(cnt.hostWrites), "host_reads": float64(cnt.hostReads)}
	if tr != nil {
		s := tr.samples()
		l.layer["couch.get_wall_ns"] = float64(percentile(s["couch.get"].wall, 50))
		l.layer["couch.set_wall_ns"] = float64(percentile(s["couch.set"].wall, 50))
		l.layer["couch.get_virt_p99_ms"] = float64(percentile(s["couch.get"].virt, 99)) / 1e6
		l.layer["couch.set_virt_p99_ms"] = float64(percentile(s["couch.set"].virt, 99)) / 1e6
		l.counts["get_mean_ns"] = meanInt64(s["couch.get"].wall)
		l.counts["set_mean_ns"] = meanInt64(s["couch.set"].wall)
	}

	// Oracle: a seeded 5 % of the records against the last value written,
	// then fsck, the store's own health and the FTL's invariants.
	vph := tr.open(parent, "harness", phVerify, end)
	vrng := rand.New(rand.NewSource(rc.seed + 99))
	checks := rig.records / 20
	var wrong errTally
	for i := 0; i < checks; i++ {
		record := vrng.Intn(rig.records)
		got, ok, err := st.get(t, ycsb.Key(record))
		if err == nil && !ok {
			err = fmt.Errorf("record %d not found", record)
		}
		if err == nil {
			err = checkValue(got, record, versions[record])
		}
		wrong.keep(err)
	}
	res.Attempted += int64(checks) + 3
	if wrong.n > 0 {
		res.fail(wrong.n, "ycsb-couch: %d of %d re-read records are wrong, first: %v", wrong.n, checks, wrong.err)
	}
	if err := rig.fs.fsck(); err != nil {
		res.fail(1, "ycsb-couch: fsck: %v", err)
	}
	if st.degraded() {
		res.fail(1, "ycsb-couch: store degraded to read-only")
	}
	if err := rig.dev.checkInvariants(); err != nil {
		res.fail(1, "ycsb-couch: drive invariants: %v", err)
	}
	tr.close(vph, t.Now())
	return l, nil
}

func meanInt64(v []int64) float64 {
	var sum int64
	for _, x := range v {
		sum += x
	}
	return ratio(float64(sum), float64(len(v)))
}

// ycsbAttribution's top rows are exact — the traced run timed every call
// itself — and the rows inside them price the layers below by probe.
func ycsbAttribution(l *legResult, p metricSet) []attribution {
	c := l.counts
	return []attribution{
		row("couch.Get (mean of spans)", "", c["ops"], c["get_mean_ns"]),
		row("fsim.ReadAt", "couch.Get (mean of spans)", c["host_reads"], p["fsim.read_wall_ns"]),
		row("couch.Set (mean of spans)", "", c["ops"], c["set_mean_ns"]),
		row("fsim append + sync", "couch.Set (mean of spans)", c["commits"], p["fsim.append_sync_wall_ns"]),
		row("fsim.ShareRange", "couch.Set (mean of spans)", c["share_pairs"], p["fsim.share_range_wall_ns"]),
		row("ssd.WritePage", "couch.Set (mean of spans)", c["host_writes"], p["ssd.write_wall_ns"]),
		row("couch.Compact (mean of spans)", "", c["compactions"], l.layer["couch.compact_wall_s"]*1e9),
	}
}
