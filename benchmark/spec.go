package main

// The benchmark's vocabulary: workloads and metrics, by the names every
// later issue refers to. BENCHMARK.json at the repository root is this
// file rendered by `-print-spec`; bench_test.go fails when the two drift.

// runSeconds is the measured length BENCHMARK.json asks the driver for.
// Op counts are fixed per second of it (see sizes.go), never timed out.
const runSeconds = 10

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"dev-mixed", "aged die-scheduled SSD under a write/read/SHARE/trim mix from 8 scheduler clients: only nand/ftl/ssd/sim work, so device-level gains show here and nowhere above"},
	{"linkbench-innodb", "paper Fig.5/6/Table 1: LinkBench on mini-InnoDB, DB 28x the buffer pool, in-place page writes on fsim; the only workload on btree/bufpool/wal/innodb"},
	{"ycsb-couch", "paper Fig.7/Table 2: YCSB-F on the append-only couch store at batch 1, through dozens of compactions; same device used by append+ShareRange instead of in-place writes"},
	{"serve-tenants", "two real TCP clients on two tenants of shareserver: the only workload on server/qos/loopback and on goroutines contending for Device.mu; fresh device, so ftl/nand idle"},
}

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Units name the clock: s, ms, us and ns are wall time; virt_s, virt_ms
// and virt_us are the simulation's virtual time, which a fixed seed
// reproduces to the last digit.
//
// Bounds are shares of the parent's median. The virtual-time bounds are
// wider than the 1 % a fixed seed would allow because the driver varies
// the seed between runs, and a different seed is a different op sequence;
// README.md lists the spreads measured over ten seeds that set them.
var endToEnd = []e2eDef{
	{"wall_ops_per_s", "ops/s", "higher", 0.08},
	{"wall_p50_us", "us", "lower", 0.10},
	{"wall_p99_us", "us", "lower", 0.25},
	{"virt_ops_per_s", "ops/virt_s", "higher", 0.05},
	{"virt_p50_ms", "virt_ms", "lower", 0.05},
	{"virt_p99_ms", "virt_ms", "lower", 0.12},
	{"share_gain", "x", "higher", 0.05},
	{"write_reduction", "x", "higher", 0.03},
	{"nand_pages_per_op", "pages/op", "lower", 0.03},
	{"setup_s", "s", "lower", 0.25},
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Per-layer metrics. Source C (counter deltas over the measured window)
// is reported by every run's text output; P (direct-drive probes) and S
// (spans around harness-owned calls) only exist under -trace. A metric
// reads 0 on a workload whose path does not reach the layer.
var perLayer = []layerDef{
	{"host.allocs_per_op", "1/op", "lower"},
	{"host.gc_cpu_frac", "frac", "lower"},
	{"host.mem_sys_mb", "MB", "lower"},

	{"sim.handoff_wall_ns", "ns", "lower"},

	{"nand.programs_per_op", "1/op", "lower"},
	{"nand.reads_per_op", "1/op", "lower"},
	{"nand.erases_per_kop", "1/kop", "lower"},
	{"nand.die_busy_frac", "frac", "lower"},
	{"nand.die_busy_skew", "x", "lower"},
	{"nand.channel_busy_frac", "frac", "lower"},
	{"nand.program_wall_ns", "ns", "lower"},
	{"nand.read_wall_ns", "ns", "lower"},

	{"ftl.host_writes_per_op", "1/op", "lower"},
	{"ftl.host_reads_per_op", "1/op", "lower"},
	{"ftl.share_pairs_per_op", "1/op", "higher"},
	{"ftl.write_amp", "x", "lower"},
	{"ftl.copybacks_per_host_write", "x", "lower"},
	{"ftl.gc_events_per_kop", "1/kop", "lower"},
	{"ftl.gc_stall_virt_ms_per_kop", "virt_ms/kop", "lower"},
	{"ftl.forced_copy_ratio", "frac", "lower"},
	{"ftl.write_wall_ns", "ns", "lower"},
	{"ftl.write_gc_wall_ns", "ns", "lower"},
	{"ftl.read_wall_ns", "ns", "lower"},
	{"ftl.share_wall_ns", "ns", "lower"},

	{"ssd.write_virt_p50_us", "virt_us", "lower"},
	{"ssd.write_virt_p99_us", "virt_us", "lower"},
	{"ssd.read_virt_p50_us", "virt_us", "lower"},
	{"ssd.read_virt_p99_us", "virt_us", "lower"},
	{"ssd.share_virt_p99_us", "virt_us", "lower"},
	{"ssd.flush_virt_p99_us", "virt_us", "lower"},
	{"ssd.die_wait_virt_frac", "frac", "lower"},
	{"ssd.write_wall_ns", "ns", "lower"},
	{"ssd.read_wall_ns", "ns", "lower"},
	{"ssd.share_wall_ns", "ns", "lower"},
	{"ssd.write_wall_ns_2g", "ns", "lower"},
	{"ssd.age_wall_s", "s", "lower"},

	{"fsim.meta_writes_per_op", "1/op", "lower"},
	{"fsim.meta_write_share", "frac", "lower"},
	{"fsim.pwrite_wall_ns", "ns", "lower"},
	{"fsim.read_wall_ns", "ns", "lower"},
	{"fsim.append_sync_wall_ns", "ns", "lower"},
	{"fsim.share_range_wall_ns", "ns", "lower"},

	{"wal.pages_per_commit", "pages", "lower"},
	{"wal.bytes_per_page", "B", "higher"},
	{"wal.append_sync_wall_ns", "ns", "lower"},

	{"bufpool.hit_ratio", "frac", "higher"},
	{"bufpool.evictions_per_op", "1/op", "lower"},
	{"bufpool.flushed_pages_per_op", "1/op", "lower"},
	{"bufpool.get_hit_wall_ns", "ns", "lower"},
	{"bufpool.get_miss_wall_ns", "ns", "lower"},

	{"btree.page_gets_per_op", "1/op", "lower"},
	{"btree.insert_wall_ns", "ns", "lower"},
	{"btree.get_wall_ns", "ns", "lower"},

	{"innodb.commits_per_op", "1/op", "lower"},
	{"innodb.flush_batches_per_kop", "1/kop", "lower"},
	{"innodb.pages_to_dwb_per_op", "1/op", "lower"},
	{"innodb.pages_to_home_per_op", "1/op", "lower"},
	{"innodb.share_pairs_per_op", "1/op", "higher"},
	{"innodb.checkpoints", "count", "lower"},
	{"innodb.grouped_txn_ratio", "frac", "higher"},
	{"innodb.commit_wall_ns", "ns", "lower"},
	{"innodb.load_wall_s", "s", "lower"},

	{"couch.pages_per_set", "pages", "lower"},
	{"couch.node_pages_per_set", "pages", "lower"},
	{"couch.share_pairs_per_set", "1/op", "higher"},
	{"couch.commits_per_op", "1/op", "lower"},
	{"couch.compactions", "count", "lower"},
	{"couch.get_wall_ns", "ns", "lower"},
	{"couch.set_wall_ns", "ns", "lower"},
	{"couch.get_virt_p99_ms", "virt_ms", "lower"},
	{"couch.set_virt_p99_ms", "virt_ms", "lower"},
	{"couch.compact_virt_s", "virt_s", "lower"},
	{"couch.compact_wall_s", "s", "lower"},
	{"couch.compact_bytes_per_doc", "B/doc", "lower"},

	{"qos.throttle_ratio", "frac", "lower"},
	{"qos.delayed_virt_ms_per_kop", "virt_ms/kop", "lower"},
	{"qos.fairness", "frac", "higher"},
	{"qos.admit_done_wall_ns", "ns", "lower"},

	{"server.set_wall_p50_us", "us", "lower"},
	{"server.set_wall_p99_us", "us", "lower"},
	{"server.get_wall_p50_us", "us", "lower"},
	{"server.get_wall_p99_us", "us", "lower"},
	{"server.commit_wall_p50_us", "us", "lower"},
	{"server.commit_wall_p99_us", "us", "lower"},
	{"server.wall_p999_us", "us", "lower"},
	{"server.new_wall_ms", "ms", "lower"},
	{"server.nil_get_wall_p50_us", "us", "lower"},

	{"trace.overhead_frac", "frac", "lower"},
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eDef      `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

func spec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
