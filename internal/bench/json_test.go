package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeJSONDeterministic is the acceptance check for the report
// pipeline: two identically-seeded smoke runs — queue depth 4, multiple
// concurrent clients — must serialize to byte-identical JSON, and the WA
// field must exclude the aging phase.
func TestSmokeJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a device workload; skipped in -short")
	}
	e, err := Get("smoke")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Scale: 0.01, Seed: 7}
	run := func() []byte {
		_, rep, err := e.RunWithReport(p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateReportJSON(data); err != nil {
			t.Fatalf("invalid report: %v\n%s", err, data)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identically-seeded runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}

	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	var wa float64
	found := false
	for _, m := range rep.Metrics {
		if m.Name == "write_amplification" {
			wa, found = m.Value, true
		}
	}
	if !found {
		t.Fatal("smoke report missing write_amplification metric")
	}
	// The device is aged to 50% full before ResetStats; if the aging
	// programs leaked into the epoch the WA would be far above any
	// plausible steady-state value for this light workload.
	if wa <= 0 || wa > 3 {
		t.Fatalf("write_amplification %.3f outside sane epoch range (aging leak?)", wa)
	}
	if len(rep.Devices) == 0 {
		t.Fatal("smoke report has no device telemetry")
	}
	d := rep.Devices[0]
	if d.QueueDepth != 4 {
		t.Fatalf("queue depth %d, want 4", d.QueueDepth)
	}
	if len(d.Latency) == 0 {
		t.Fatal("no latency summaries in device report")
	}
	if d.FTL.HostWrites == 0 || d.Chip.Programs == 0 {
		t.Fatal("epoch counters empty")
	}
	// Honest window: the clients start where aging left the device idle,
	// so no recorded latency contains the aged device's queue draining.
	// With 400 closed-loop ops per client, one op taking a tenth of the
	// whole window (let alone more than the window) is that artefact —
	// the 11.8 s "write" of the pre-closedLoop fixture was 97 % of its.
	metric := map[string]float64{}
	for _, m := range rep.Metrics {
		metric[m.Name] = m.Value
	}
	windowMs := metric["ops"] / metric["throughput"] * 1000
	for cmd, lat := range d.Latency {
		if lat.Max >= windowMs/10 {
			t.Fatalf("%s latency max %.3f ms against a %.3f ms window: setup queueing leaked into the measurement",
				cmd, lat.Max, windowMs)
		}
	}
}

// TestLegacyReportsOmitStreamCounters guards the legacy report format:
// a device without host streams must serialize with no per-stream fields
// at all — the pre-streams BENCH_*.json files stay byte-identical, which
// CI enforces by regenerating them and diffing.
func TestLegacyReportsOmitStreamCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a device workload; skipped in -short")
	}
	e, err := Get("smoke")
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := e.RunWithReport(Params{Scale: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"StreamWrites", "StreamCopybacks"} {
		if bytes.Contains(data, []byte(field)) {
			t.Fatalf("legacy smoke report leaks %s:\n%s", field, data)
		}
	}
}

// TestReportOmitsUnreadOpScale: only the experiments that read
// Params.OpScale record it, so a smoke run asked for -opscale 5 (which it
// ignores) must not claim op_scale 5 in its provenance.
func TestReportOmitsUnreadOpScale(t *testing.T) {
	e, err := Get("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if got := NewReport(e, Params{Scale: 0.01, Seed: 7, OpScale: 5}).Config.OpScale; got != 0 {
		t.Fatalf("smoke report records op_scale %d for a run that ignores it", got)
	}
}

func TestValidateReportJSON(t *testing.T) {
	if err := ValidateReportJSON([]byte("{")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	if err := ValidateReportJSON([]byte(`{"schema":"nope"}`)); err == nil {
		t.Fatal("accepted wrong schema")
	}
	good := Report{
		Schema: ReportSchema, Experiment: "x", Title: "y",
		Config: ConfigInfo{Scale: 1, Seed: 42}, Output: "ok\n",
	}
	data, err := good.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReportJSON(data); err != nil {
		t.Fatalf("rejected valid report: %v", err)
	}
}

// TestFixturesNameRegisteredExperiments: every BENCH_*.json checked in at
// the repository root is a valid report of the registered experiment its
// file name carries, so deleting or renaming an experiment cannot leave
// an orphan fixture behind.
func TestFixturesNameRegisteredExperiments(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json fixtures found at the repository root")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateReportJSON(data); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		if rep.Experiment != id {
			t.Errorf("%s: experiment %q, want %q from its file name", path, rep.Experiment, id)
		}
		if _, err := Get(id); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
