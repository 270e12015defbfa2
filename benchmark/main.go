// Command benchmark is the repository's benchmark: four workloads over the
// SHARE stack, measured on both of its clocks — virtual time (what the
// reproduction publishes) and wall time (what the simulator and
// shareserver cost to run) — end to end and layer by layer. README.md in
// this directory is the manual; BENCHMARK.json at the repository root is
// spec.go rendered.
//
//	benchmark -workload <name|all> -seed N [-seconds S] [-trace 0|1] [-out FILE]
//	benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runCtx is what one invocation hands every workload.
type runCtx struct {
	seed int64
	// seconds scales every op count: the counts are fixed per second of
	// it (calibrated on the box README.md describes), so a given -seconds
	// always means the same work and the virtual metrics repeat exactly.
	seconds float64
	tiny    bool    // bench_test.go's rigs: small devices, same code paths
	tr      *tracer // nil: tracing off
}

// ops scales a per-second op count to this run, never below min.
func (rc *runCtx) ops(perSecond float64, frac float64, min int) int {
	n := int(perSecond * rc.seconds * frac)
	if n < min {
		n = min
	}
	return n
}

// probeOps is a probe's op count: the count given, or a twentieth of it
// for the test-sized run.
func (rc *runCtx) probeOps(n int) int {
	if rc.tiny {
		return n / 20
	}
	return n
}

// legResult is what one leg of a workload measured. The SHARE leg yields
// every metric; the baseline leg only feeds share_gain and
// write_reduction.
type legResult struct {
	ops     int64   // ops inside the virtual window
	wallOps int64   // ops inside the wall window (LinkBench's includes warm-up)
	wallS   float64 // wall seconds of the measured phase
	virtS   float64 // virtual seconds from the device-free horizon t0 to the last client's end

	wallP50us, wallP99us float64
	virtP50ms, virtP99ms float64
	fifths               []float64

	hostWrites   int64 // data-device host page writes in the window
	nandPrograms int64 // NAND programs on every device of the rig
	setupS       float64

	layer   metricSet          // C metrics, plus S metrics when traced
	counts  map[string]float64 // call counts the attribution table multiplies
	samples map[string]int
}

func newLegResult() *legResult {
	return &legResult{layer: metricSet{}, samples: map[string]int{}}
}

func (l *legResult) wallRate() float64 { return ratio(float64(l.wallOps), l.wallS) }
func (l *legResult) virtRate() float64 { return ratio(float64(l.ops), l.virtS) }

// workloadImpl is one workload. leg builds its rig, runs frac of the op
// count with SHARE on or off, checks the outputs and returns what it
// measured; failures are recorded on res.
type workloadImpl struct {
	name      string
	baseFrac  float64 // baseline leg's op count as a share of the SHARE leg's
	baseline  string  // what the baseline leg does instead of SHARE
	paperGain string  // the paper's figure, printed beside share_gain
	leg       func(rc *runCtx, res *workloadResult, share bool, frac float64, parent int32) (*legResult, error)
	// setupOnly performs one more set-up so setup_s is a median of three;
	// nil where a leg already pools many set-ups (serve-tenants).
	setupOnly func(rc *runCtx) (float64, error)
	attribute func(l *legResult, probes metricSet) []attribution
}

var impls = []workloadImpl{devMixed, linkbenchInnodb, ycsbCouch, serveTenants}

func findWorkload(name string) *workloadImpl {
	for i := range impls {
		if impls[i].name == name {
			return &impls[i]
		}
	}
	return nil
}

// runUntraced is the end-to-end run: SHARE leg, baseline leg, one spare
// set-up; tracing is off throughout.
func (w *workloadImpl) runUntraced(rc *runCtx) *workloadResult {
	res := newWorkloadResult(w.name)
	start := time.Now()
	defer func() { res.WallS = time.Since(start).Seconds() }()

	sh, err := w.leg(rc, res, true, 1, noSpan)
	if err != nil {
		res.fail(1, "SHARE leg: %v", err)
		return res
	}
	base, err := w.leg(rc, res, false, w.baseFrac, noSpan)
	if err != nil {
		res.fail(1, "baseline leg: %v", err)
		return res
	}
	setups := []float64{sh.setupS}
	if w.setupOnly != nil {
		spare, err := w.setupOnly(rc)
		if err != nil {
			res.fail(1, "spare set-up: %v", err)
			return res
		}
		setups = append(setups, base.setupS, spare)
	}

	res.setEndToEnd(metricSet{
		"wall_ops_per_s":    sh.wallRate(),
		"wall_p50_us":       sh.wallP50us,
		"wall_p99_us":       sh.wallP99us,
		"virt_ops_per_s":    sh.virtRate(),
		"virt_p50_ms":       sh.virtP50ms,
		"virt_p99_ms":       sh.virtP99ms,
		"share_gain":        ratio(sh.virtRate(), base.virtRate()),
		"write_reduction":   ratio(ratio(float64(base.hostWrites), float64(base.ops)), ratio(float64(sh.hostWrites), float64(sh.ops))),
		"nand_pages_per_op": ratio(float64(sh.nandPrograms), float64(sh.ops)),
		"setup_s":           median(setups),
	})
	res.setPerLayer(sh.layer)
	res.Fifths = sh.fifths
	res.Samples = sh.samples
	res.note("SHARE leg: %d ops in %.2f s wall, %.3f s virtual; baseline leg (%s): %d ops, %.1f virtual ops/s",
		sh.wallOps, sh.wallS, sh.virtS, w.baseline, base.ops, base.virtRate())
	res.note("share_gain %.2fx (paper: %s)", res.EndToEnd["share_gain"].Value, w.paperGain)
	return res
}

// tracedFrac is the traced run's share of the op count.
const tracedFrac = 1.0 / 8

// runTraced is the per-layer run: the SHARE leg at an eighth of the op
// count, once with tracing off and once with spans around every call the
// harness makes, then every layer's direct-drive probes.
func (w *workloadImpl) runTraced(rc *runCtx, spanPath string) *workloadResult {
	res := newWorkloadResult(w.name)
	start := time.Now()
	defer func() { res.WallS = time.Since(start).Seconds() }()

	plain, err := w.leg(rc, res, true, tracedFrac, noSpan)
	if err != nil {
		res.fail(1, "untraced leg: %v", err)
		return res
	}
	tr := newTracer(1 << 20)
	trc := *rc
	trc.tr = tr
	root := tr.open(noSpan, "harness", w.name, 0)
	legSpan := tr.open(root, "harness", "leg-share", 0)
	traced, err := w.leg(&trc, res, true, tracedFrac, legSpan)
	tr.close(legSpan, 0)
	if err != nil {
		res.fail(1, "traced leg: %v", err)
		return res
	}
	m := traced.layer
	m["trace.overhead_frac"] = 1 - ratio(traced.wallRate(), plain.wallRate())

	probes := metricSet{}
	if err := runProbes(&trc, root, probes); err != nil {
		res.fail(1, "probes: %v", err)
	}
	tr.close(root, 0)
	for k, v := range probes {
		m[k] = v
	}
	rows := w.attribute(traced, probes)
	res.setPerLayer(m)
	res.Samples = traced.samples
	res.Samples["spans"] = len(tr.spans)
	res.note("traced %d ops at %.0f ops/s wall against %.0f untraced", traced.wallOps, traced.wallRate(), plain.wallRate())
	if err := tr.write(spanPath, w.name, traced.wallS, rows); err != nil {
		res.fail(1, "span file: %v", err)
	} else {
		res.note("spans written to %s", spanPath)
	}
	printAttribution(os.Stdout, w.name, traced.wallS, rows)
	return res
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 42, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", runSeconds, "op counts are fixed per second of this; about the SHARE leg's wall time on the reference box")
		trace     = flag.Int("trace", 0, "1: traced run (per-layer metrics, span file); 0: end-to-end run")
		out       = flag.String("out", "", "result file (default .bench_build/result-<workload>[-trace].json)")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
		tiny      = flag.Bool("tiny", false, "test-sized rigs")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	switch {
	case *printSpec:
		b, err := json.MarshalIndent(spec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	var todo []*workloadImpl
	if *workload == "all" {
		for i := range impls {
			todo = append(todo, &impls[i])
		}
	} else if w := findWorkload(*workload); w != nil {
		todo = []*workloadImpl{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *seed == 0 {
		*seed = 42 // linkbench and ycsb read a zero seed as "default"; say so once, here
	}

	env := readEnv()
	fmt.Printf("benchmark: seed %d, %.3g s of ops, trace %d; %d CPUs, %s, load average %.2f\n",
		*seed, *seconds, *trace, env.NProc, env.GoVersion, env.LoadAvg1)
	if env.LoadAvg1 > float64(env.NProc) {
		fmt.Printf("WARNING: 1-minute load average %.2f exceeds the %d CPUs; wall numbers of this run are suspect\n",
			env.LoadAvg1, env.NProc)
	}

	suffix := ""
	if *trace != 0 {
		suffix = "-trace"
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "result-"+*workload+suffix+".json")
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fatal(err)
	}

	rc := &runCtx{seed: *seed, seconds: *seconds, tiny: *tiny}
	file := resultFile{Schema: resultSchema, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Env: env,
		Workloads: map[string]*workloadResult{}}
	ok := true
	var last *workloadResult
	for _, w := range todo {
		var res *workloadResult
		if *trace != 0 {
			spanPath := (*out)[:len(*out)-len(filepath.Ext(*out))] + "." + w.name + ".spans.json"
			res = w.runTraced(rc, spanPath)
		} else {
			res = w.runUntraced(rc)
		}
		if res.PerLayer == nil {
			res.setPerLayer(metricSet{}) // a run that failed early still prints every name
		}
		res.print(os.Stdout, *trace != 0)
		file.Workloads[w.name] = res
		ok = ok && res.Correct
		last = res
		runtime.GC() // drop this workload's devices before the next one's set-up
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult written to %s\n", *out)

	// The driver's line: one workload, one JSON object, last on stdout.
	if len(todo) == 1 {
		fmt.Println(last.driverLine(*trace != 0))
	} else {
		all := map[string]json.RawMessage{}
		for name, r := range file.Workloads {
			all[name] = json.RawMessage(r.driverLine(*trace != 0))
		}
		b, _ := json.Marshal(all)
		fmt.Println(string(b))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
