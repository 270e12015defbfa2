package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

// metricSet maps a declared metric name to its value.
type metricSet map[string]float64

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo is recorded in every result: wall numbers mean nothing without
// the box they were taken on.
type envInfo struct {
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	LoadAvg1  float64 `json:"load_avg_1m"`
}

func readEnv() envInfo {
	e := envInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), LoadAvg1: -1}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(b), "%f", &e.LoadAvg1)
	}
	return e
}

// workloadResult is one workload's outcome. EndToEnd is empty for a
// traced run: traced numbers never stand in for untraced ones.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Fifths    []float64              `json:"wall_ops_per_s_by_fifth,omitempty"`
	Samples   map[string]int         `json:"samples"`
	Notes     []string               `json:"notes,omitempty"`
	WallS     float64                `json:"wall_s"` // whole run, set-up to verify
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Schema    string                     `json:"schema"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Env       envInfo                    `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

const resultSchema = "share-benchmark/v1"

func newWorkloadResult(name string) *workloadResult {
	return &workloadResult{Workload: name, Correct: true, Samples: map[string]int{}}
}

// fail records a failed oracle check or refused op; it is what turns
// `correct` false and the exit code non-zero.
func (r *workloadResult) fail(n int64, format string, args ...any) {
	r.Failed += n
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *workloadResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setEndToEnd stores the run's end-to-end metrics under their declared
// units, refusing names the spec does not declare and values the driver
// would refuse (zero, NaN).
func (r *workloadResult) setEndToEnd(m metricSet) {
	r.EndToEnd = make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		v, ok := m[d.Name]
		if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(1, "end-to-end metric %s has no positive value (%v)", d.Name, v)
		}
		r.EndToEnd[d.Name] = metricValue{v, d.Unit}
		delete(m, d.Name)
	}
	for name := range m {
		r.fail(1, "undeclared end-to-end metric %s", name)
	}
}

func (r *workloadResult) setPerLayer(m metricSet) {
	r.PerLayer = make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.PerLayer[d.Name] = metricValue{v, d.Unit}
		delete(m, d.Name)
	}
	for name := range m {
		r.fail(1, "undeclared per-layer metric %s", name)
	}
}

// driverLine is the contract's last line of standard output.
func (r *workloadResult) driverLine(trace bool) string {
	ms := r.EndToEnd
	if trace {
		ms = r.PerLayer
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// print renders the human-readable report.
func (r *workloadResult) print(w io.Writer, trace bool) {
	fmt.Fprintf(w, "\n== %s ==  correct=%v attempted=%d failed=%d  (%.1f s wall in all)\n",
		r.Workload, r.Correct, r.Attempted, r.Failed, r.WallS)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	if len(r.EndToEnd) > 0 {
		fmt.Fprintln(w, "  end to end (tracing off):")
		for _, d := range endToEnd {
			fmt.Fprintf(w, "    %-22s %14.4f %-9s (%s is better, bound %.0f%%)\n",
				d.Name, r.EndToEnd[d.Name].Value, d.Unit, d.Better, d.Bound*100)
		}
	}
	if len(r.Fifths) > 0 {
		parts := make([]string, len(r.Fifths))
		for i, f := range r.Fifths {
			parts[i] = fmt.Sprintf("%.0f", f)
		}
		fmt.Fprintf(w, "  wall_ops_per_s by fifth of the window: %s\n", strings.Join(parts, "  "))
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  samples %-28s %d\n", k, r.Samples[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	what := "per layer (counter deltas over the measured window):"
	if trace {
		what = "per layer (counters, probes and spans of the traced run):"
	}
	fmt.Fprintf(w, "  %s\n", what)
	for _, d := range perLayer {
		if v := r.PerLayer[d.Name].Value; v != 0 {
			fmt.Fprintf(w, "    %-32s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

// --- order statistics -----------------------------------------------------

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile[T int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return percentile(s, 50)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
