package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The benchmark is a module of its own, so these tests run with
// `cd benchmark && go test ./...`, not with the repository's tier-1
// command. They finish in a few seconds.

func tinyCtx() *runCtx { return &runCtx{seed: 7, seconds: 0.01, tiny: true} }

// virtualMetrics repeat exactly for a fixed seed wherever one scheduler
// or one solo task does all the work.
var virtualMetrics = []string{"virt_ops_per_s", "virt_p50_ms", "virt_p99_ms", "share_gain", "write_reduction", "nand_pages_per_op"}

func TestWorkloadsTinyTwice(t *testing.T) {
	for i := range impls {
		w := &impls[i]
		t.Run(w.name, func(t *testing.T) {
			a, b := w.runUntraced(tinyCtx()), w.runUntraced(tinyCtx())
			for _, r := range []*workloadResult{a, b} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", r.Correct, r.Attempted, r.Failed, r.Problems)
				}
				if len(r.EndToEnd) != len(endToEnd) || len(r.PerLayer) != len(perLayer) {
					t.Fatalf("emitted %d end-to-end and %d per-layer metrics, declared %d and %d",
						len(r.EndToEnd), len(r.PerLayer), len(endToEnd), len(perLayer))
				}
			}
			if w.name == "serve-tenants" {
				return // real goroutines: steady, not identical
			}
			for _, name := range virtualMetrics {
				if x, y := a.EndToEnd[name].Value, b.EndToEnd[name].Value; x != y {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", name, x, y)
				}
			}
		})
	}
}

// TestTracedTiny drives the traced path — spans, every probe, the span
// file — and with it every per-layer metric name the code sets:
// setPerLayer fails the result on a name spec.go does not declare.
func TestTracedTiny(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	r := findWorkload("ycsb-couch").runTraced(tinyCtx(), path)
	if !r.Correct {
		t.Fatalf("traced run: %v", r.Problems)
	}
	for _, name := range []string{"couch.set_wall_ns", "fsim.append_sync_wall_ns", "server.nil_get_wall_p50_us", "sim.handoff_wall_ns"} {
		if r.PerLayer[name].Value <= 0 {
			t.Errorf("%s not measured", name)
		}
	}
	var f spanFile
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.Spans == 0 || len(f.Aggregates) == 0 || len(f.Attribution) == 0 || len(f.Raw) == 0 {
		t.Errorf("span file is missing a section: %d spans, %d aggregates, %d attribution rows, %d raw",
			f.Spans, len(f.Aggregates), len(f.Attribution), len(f.Raw))
	}
}

// TestTracingOffAllocatesNoSpans pins that the untraced numbers cannot
// depend on the tracing code: a nil tracer records nothing.
func TestTracingOffAllocatesNoSpans(t *testing.T) {
	var tr *tracer
	n := testing.AllocsPerRun(100, func() {
		id := tr.open(noSpan, "ssd", "write", 0)
		tr.call(id, tr.op("ssd", "write"), tr.now(), tr.now(), 0, 0)
		tr.close(id, 0)
	})
	if n != 0 {
		t.Errorf("nil tracer allocates %v times per call", n)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecMatchesBenchmarkJSON holds spec.go to the file the driver
// reads and to the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json is not `benchmark -print-spec`; regenerate it")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads", len(endToEnd), len(perLayer), len(workloads))
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s")
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || findWorkload(w.Name) == nil {
			t.Errorf("workload %s: why of %d characters, or no implementation", w.Name, len(w.Why))
		}
	}
}

// TestCompareVerdicts hand-makes a wall_ops_per_s drop on either side of
// the bound.
func TestCompareVerdicts(t *testing.T) {
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "wall_ops_per_s" {
			bound = d.Bound
		}
	}
	mk := func(scale float64, failed int64) *resultFile {
		r := newWorkloadResult("dev-mixed")
		r.Attempted, r.Failed = 1000, failed
		r.EndToEnd = map[string]metricValue{}
		for _, d := range endToEnd {
			r.EndToEnd[d.Name] = metricValue{100, d.Unit}
		}
		r.EndToEnd["wall_ops_per_s"] = metricValue{100 * scale, "ops/s"}
		return &resultFile{Schema: resultSchema, Workloads: map[string]*workloadResult{"dev-mixed": r}}
	}
	for _, c := range []struct {
		name   string
		b      *resultFile
		code   int
		expect string
	}{
		{"drop beyond the bound", mk(1-bound-0.01, 0), 1, "regressed"},
		{"drop of half the bound", mk(1-bound/2, 0), 0, "within-bound"},
		{"gain beyond the bound", mk(1+bound+0.01, 0), 0, "improved"},
		{"one more failed op", mk(1, 1), 1, "regressed"},
	} {
		var out bytes.Buffer
		if code := compareResults(&out, mk(1, 0), c.b); code != c.code || !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", c.name, code, c.code, c.expect, out.String())
		}
	}
}
