// Command sharebench runs the paper-reproduction experiments: every table
// and figure from §5 of "SHARE Interface in Flash Storage for Relational
// and NoSQL Databases" (SIGMOD 2016), plus the design ablations.
//
// Usage:
//
//	sharebench -list
//	sharebench -exp fig5b [-scale 0.05] [-seed 42]
//	sharebench -all [-scale 0.02]
//	sharebench -exp smoke -json [-outdir results]
//	sharebench -exp device -opscale 100 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Scale 1 corresponds to the paper's sizes (4 GiB OpenSSD, 1.5 GiB
// LinkBench database, 250k×4 KiB YCSB documents); the default keeps runs
// to seconds. Results are virtual-time measurements from the simulator,
// so throughput numbers are stable across machines.
//
// With -json, each experiment also writes BENCH_<id>.json — a
// machine-readable report (schema share-bench/v1) carrying the metrics,
// per-device telemetry (epoch counters, write amplification, latency
// percentiles, GC/copyback/log-page activity) and the run's config
// provenance. Identically-seeded runs produce byte-identical files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"share/internal/bench"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		exp     = flag.String("exp", "", "experiment id to run")
		all     = flag.Bool("all", false, "run every experiment")
		scale   = flag.Float64("scale", 0, "size multiplier vs the paper's setup (default 0.02)")
		opScale = flag.Int("opscale", 1, "op-count multiplier for fixed-size experiments (device): 10-100 for profiling runs")
		seed    = flag.Int64("seed", 0, "random seed (default 42)")
		asJSON  = flag.Bool("json", false, "also write BENCH_<id>.json for each experiment")
		outdir  = flag.String("outdir", ".", "directory for -json output files")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // flush pending frees so the profile shows live + cumulative allocs accurately
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	// os.Exit skips deferred profile flushes, so failures funnel through
	// fail, which stops the CPU profile first (a no-op when not profiling).
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		pprof.StopCPUProfile()
		os.Exit(1)
	}
	params := bench.Params{Scale: *scale, Seed: *seed, OpScale: *opScale}
	run := func(e bench.Experiment) error {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		out, rep, err := e.RunWithReport(params)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(out)
		fmt.Printf("(wall time %.1fs)\n\n", time.Since(start).Seconds())
		if *asJSON {
			data, err := rep.JSON()
			if err != nil {
				return fmt.Errorf("%s: render report: %w", e.ID, err)
			}
			if err := bench.ValidateReportJSON(data); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			path := filepath.Join(*outdir, "BENCH_"+e.ID+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		return nil
	}
	switch {
	case *all:
		for _, e := range bench.All() {
			if err := run(e); err != nil {
				fail(err)
			}
		}
	case *exp != "":
		e, err := bench.Get(*exp)
		if err != nil {
			fail(err)
		}
		if err := run(e); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
