package main

import "runtime"

// runProbes runs every layer's direct-drive probe under one probe phase.
// All of them run in every traced run, whichever workload it traces: each
// workload's attribution table multiplies its own counters by these
// costs, and the whole set takes a few seconds. A probe builds a fresh
// rig of its own, so no workload's state leaks into its numbers.
func runProbes(rc *runCtx, root int32, m metricSet) error {
	tr := rc.tr
	ph := tr.open(root, "harness", phProbe, 0)
	defer tr.close(ph, 0)
	var fe errTally
	for _, p := range []struct {
		layer string
		run   func() error
	}{
		{"sim", func() error { probeSim(rc, m); return nil }},
		{"nand", func() error { return probeNand(rc, m) }},
		{"ftl", func() error { return probeFTL(rc, m) }},
		{"ssd", func() error { return probeSSD(rc, m) }},
		{"fsim", func() error { return probeFsim(rc, m) }},
		{"wal", func() error { return probeWAL(rc, m) }},
		{"bufpool", func() error { return probeBufpool(rc, m) }},
		{"btree", func() error { return probeBtree(rc, m) }},
		{"innodb", func() error { return probeInnodb(rc, m) }},
		{"qos", func() error { probeQoS(rc, m); return nil }},
		{"server", func() error { return probeServer(rc, m) }},
	} {
		// Collect the rigs the legs and earlier probes left behind: a probe
		// that allocates into a heap full of dead devices is timed with the
		// collector marking beside it.
		runtime.GC()
		id := tr.open(ph, p.layer, "probe", 0)
		fe.keep(p.run())
		tr.close(id, 0)
	}
	return fe.err
}
