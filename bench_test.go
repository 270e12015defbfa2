// Benchmarks regenerating every table and figure in the paper's
// evaluation (§5), one testing.B target per artifact, plus the design
// ablations. Each runs the corresponding internal/bench experiment at a
// small scale and reports key numbers as custom metrics; run
// cmd/sharebench for the full paper-style tables and -scale control.
//
//	go test -bench=. -benchmem
package share_test

import (
	"strings"
	"testing"

	"share/internal/bench"
)

// benchScale keeps every target in the seconds range; cmd/sharebench
// accepts -scale for larger runs.
const benchScale = 0.005

func runExperiment(b *testing.B, id string) {
	b.Helper()
	if testing.Short() {
		b.Skipf("skipping experiment %s in -short mode (run the tier-1 `make check` without benchmarks, or drop -short)", id)
	}
	e, err := bench.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		out, _, err := e.RunWithReport(bench.Params{Scale: benchScale, Seed: 42})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			lines := strings.Count(out, "\n")
			b.ReportMetric(float64(lines), "output-lines")
			if testing.Verbose() {
				b.Logf("\n%s", out)
			}
		}
	}
}

// BenchmarkFig5aPageSize regenerates Figure 5(a): LinkBench throughput
// with 4/8/16 KiB pages, DWB-On vs SHARE.
func BenchmarkFig5aPageSize(b *testing.B) { runExperiment(b, "fig5a") }

// BenchmarkFig5bBufferSize regenerates Figure 5(b): LinkBench throughput
// with 50/100/150 MB buffer pools.
func BenchmarkFig5bBufferSize(b *testing.B) { runExperiment(b, "fig5b") }

// BenchmarkFig6IOActivities regenerates Figure 6(a)-(c): host page
// writes, GC events and copyback pages inside the SSD.
func BenchmarkFig6IOActivities(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkTable1Latency regenerates Table 1: the LinkBench per-operation
// latency distribution under DWB-On and SHARE.
func BenchmarkTable1Latency(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig7YCSBF regenerates Figure 7(a)+(b): YCSB workload-F
// throughput and written bytes across commit batch sizes.
func BenchmarkFig7YCSBF(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8YCSBA regenerates Figure 8: YCSB workload-A throughput
// across commit batch sizes.
func BenchmarkFig8YCSBA(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkTable2Compaction regenerates Table 2: compaction elapsed time
// and written bytes, original vs SHARE.
func BenchmarkTable2Compaction(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkPgFullPageWrites regenerates the §5.3.1 in-text pgbench
// experiment: full_page_writes on/off/SHARE.
func BenchmarkPgFullPageWrites(b *testing.B) { runExperiment(b, "pgfpw") }

// BenchmarkAblationShareTable sweeps the bounded reverse-mapping table.
func BenchmarkAblationShareTable(b *testing.B) { runExperiment(b, "abl-sharetable") }

// BenchmarkAblationShareBatch compares batched vs per-pair SHARE.
func BenchmarkAblationShareBatch(b *testing.B) { runExperiment(b, "abl-batch") }

// BenchmarkAblationOverprovision sweeps GC headroom under both modes.
func BenchmarkAblationOverprovision(b *testing.B) { runExperiment(b, "abl-op") }

// BenchmarkAblationAtomicWrite compares SHARE with the §6.1 atomic-write
// FTL baseline on LinkBench.
func BenchmarkAblationAtomicWrite(b *testing.B) { runExperiment(b, "abl-atomic") }

// BenchmarkAblationSQLite compares SQLite-style commit protocols:
// rollback journal vs WAL vs journaling-off-with-SHARE (§3.3/§7).
func BenchmarkAblationSQLite(b *testing.B) { runExperiment(b, "abl-sqlite") }

// BenchmarkAblationQueueDepth sweeps device-internal parallelism.
func BenchmarkAblationQueueDepth(b *testing.B) { runExperiment(b, "abl-queue") }

// BenchmarkAblationYCSBAll runs all six YCSB workloads in both modes.
func BenchmarkAblationYCSBAll(b *testing.B) { runExperiment(b, "abl-ycsb") }

// BenchmarkSmoke runs the fast mixed-workload telemetry check behind
// `make bench-json`.
func BenchmarkSmoke(b *testing.B) { runExperiment(b, "smoke") }

// BenchmarkDevice runs the device sweep behind `make bench-device`
// (channels x queue depth x IO size x placement on aged devices).
func BenchmarkDevice(b *testing.B) { runExperiment(b, "device") }

// BenchmarkCache runs the flash-extended buffer cache comparison behind
// `make bench-cache` (steady-state gain over the no-cache baseline, plus
// recovery-to-peak-throughput for warm, cold and faulted restarts).
func BenchmarkCache(b *testing.B) { runExperiment(b, "cache") }
