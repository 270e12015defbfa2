package bench

import (
	"bytes"
	"encoding/json"
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

// TestStreamsJSONDeterministic: the streams report must be reproducible
// byte for byte (CI regenerates BENCH_streams.json and diffs it), and the
// hints device telemetry must carry the per-stream counters the legacy
// reports omit.
func TestStreamsJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("ages three devices, twice; skipped in -short")
	}
	e, err := Get("streams")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		_, rep, err := e.RunWithReport(Params{})
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
		t.Fatalf("identically-seeded streams runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte("StreamWrites")) {
		t.Fatalf("streams report missing per-stream counters:\n%s", a)
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
