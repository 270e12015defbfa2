package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// The device sweep ages five devices; the four tests below pin different
// parts of one report, so the sweep runs twice per test binary, not twice
// per test.
var (
	deviceOnce sync.Once
	deviceRun  deviceSweepRun
)

type deviceSweepRun struct {
	err     error
	data    []byte // first run's JSON
	second  []byte // second run's JSON, from identical Params
	out     string
	rep     Report
	metrics map[string]float64
}

// deviceSweep runs the device experiment twice with identical Params and
// returns the first run's report. Every caller fails on a run error or a
// schema-invalid report.
func deviceSweep(t *testing.T) deviceSweepRun {
	t.Helper()
	if testing.Short() {
		t.Skip("ages five devices, twice; skipped in -short")
	}
	deviceOnce.Do(func() {
		r := &deviceRun
		e, err := Get("device")
		if err != nil {
			r.err = err
			return
		}
		run := func() ([]byte, string, error) {
			out, rep, err := e.RunWithReport(Params{})
			if err != nil {
				return nil, "", err
			}
			data, err := rep.JSON()
			if err != nil {
				return nil, "", err
			}
			if err := ValidateReportJSON(data); err != nil {
				return nil, "", fmt.Errorf("invalid report: %v\n%s", err, data)
			}
			return data, out, nil
		}
		if r.data, r.out, r.err = run(); r.err != nil {
			return
		}
		if r.second, _, r.err = run(); r.err != nil {
			return
		}
		if r.err = json.Unmarshal(r.data, &r.rep); r.err != nil {
			return
		}
		r.metrics = map[string]float64{}
		for _, m := range r.rep.Metrics {
			r.metrics[m.Name] = m.Value
		}
	})
	if deviceRun.err != nil {
		t.Fatal(deviceRun.err)
	}
	return deviceRun
}

// requireIdenticalReruns fails unless two identically-seeded device runs
// serialized to byte-identical JSON (CI regenerates BENCH_device.json and
// diffs it).
func requireIdenticalReruns(t *testing.T, r deviceSweepRun) {
	t.Helper()
	if !bytes.Equal(r.data, r.second) {
		t.Fatalf("identically-seeded device runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", r.data, r.second)
	}
}

// TestScaleSpeedup pins the sweep's parallelism table: the 4-channel
// array at least doubles 1-channel throughput at queue depth 8, and the
// deepest point of every channel count carries die telemetry with every
// die busy.
func TestScaleSpeedup(t *testing.T) {
	r := deviceSweep(t)
	if sp := r.metrics["speedup_c4_over_c1_qd8"]; sp < 2 {
		t.Errorf("4-channel speedup %.2fx < 2x at qd=8\n%s", sp, r.out)
	}
	devices := map[string]DeviceReport{}
	for _, d := range r.rep.Devices {
		devices[d.Label] = d
	}
	for _, ch := range deviceChannels {
		label := fmt.Sprintf("c%d_qd16", ch)
		d, ok := devices[label]
		if !ok || len(d.Dies) != ch {
			t.Fatalf("device report %s missing or without %d dies of telemetry: %+v", label, ch, d.Dies)
		}
		for _, ds := range d.Dies {
			if ds.BusyNs <= 0 {
				t.Fatalf("device %s die %d idle: %+v", label, ds.Die, ds)
			}
		}
	}
}

// TestStreamsWAReduction pins write placement: at single-page writes,
// host hints and the auto-stream classifier both cut WA and GC copybacks
// versus the legacy single stream, with traffic on both streams.
func TestStreamsWAReduction(t *testing.T) {
	r := deviceSweep(t)
	// The run is deterministic for fixed Params, so these floors are well
	// below the measured reductions (8-26%) yet still catch a placement
	// or accounting regression that erases the benefit.
	for _, placement := range []string{"hints", "auto"} {
		if red := r.metrics["wa_reduction_"+placement]; red < 0.03 {
			t.Errorf("%s: WA reduction %.3f < 0.03 vs legacy\n%s", placement, red, r.out)
		}
		if red := r.metrics["copyback_reduction_"+placement]; red < 0.05 {
			t.Errorf("%s: copyback reduction %.3f < 0.05 vs legacy\n%s", placement, red, r.out)
		}
		// A dead stream means the classifier or the hint plumbing
		// collapsed to single-stream.
		for s := 0; s < 2; s++ {
			if r.metrics[fmt.Sprintf("stream%d_writes_%s", s, placement)] <= 0 {
				t.Errorf("%s: stream %d received no writes\n%s", placement, s, r.out)
			}
		}
	}
}

// TestStreamsJSONDeterministic: the device report is byte-identical and
// schema-valid across identically-seeded runs, and the `hints` device
// report carries one per-stream counter per host stream.
func TestStreamsJSONDeterministic(t *testing.T) {
	r := deviceSweep(t)
	requireIdenticalReruns(t, r)
	for _, d := range r.rep.Devices {
		if d.Label != "hints" {
			continue
		}
		if n := len(d.FTL.StreamWrites); n != 2 {
			t.Fatalf("hints device report carries %d per-stream counters, want 2", n)
		}
		return
	}
	t.Fatalf("device report missing the hints device:\n%s", r.data)
}

// TestWritepathJSONDeterministic: the device report is byte-identical
// across identically-seeded runs, and the placement crossover map carries
// a winner and positive throughput per placement for every (IO size,
// queue depth) cell.
func TestWritepathJSONDeterministic(t *testing.T) {
	r := deviceSweep(t)
	requireIdenticalReruns(t, r)
	for _, size := range deviceSizes {
		for _, qd := range devicePlaceDepths {
			name := fmt.Sprintf("winner_s%d_qd%d", size, qd)
			w, ok := r.metrics[name]
			if !ok || w < 0 || int(w) >= len(devicePlacements) {
				t.Fatalf("crossover map %s = %v (present %v), not a placement index", name, w, ok)
			}
			for _, placement := range devicePlacements {
				tn := fmt.Sprintf("tput_%s_s%d_qd%d", placement, size, qd)
				if r.metrics[tn] <= 0 {
					t.Fatalf("cell metric %s missing or non-positive", tn)
				}
			}
		}
	}
}
