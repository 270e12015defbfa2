package bench

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact and ablation must be registered.
	want := []string{
		"fig5a", "fig5b", "fig6", "table1", "fig7", "fig8", "table2",
		"pgfpw", "abl-sharetable", "abl-batch", "abl-op", "abl-atomic", "abl-sqlite", "abl-queue", "abl-ycsb",
		"smoke", "soak", "tenants", "device", "cache",
	}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Errorf("experiment %s missing: %v", id, err)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("registry not sorted: %s >= %s", all[i-1].ID, all[i].ID)
		}
	}
	for _, e := range all {
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

// TestExperimentsRunTiny executes a representative subset end to end at a
// very small scale; the full set runs via bench_test.go benchmarks and
// cmd/sharebench.
func TestExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-long; skipped in -short")
	}
	for _, id := range []string{"table2", "pgfpw", "abl-batch"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			out, rep, err := e.RunWithReport(Params{Scale: 0.004, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "\n") {
				t.Fatalf("suspiciously short output: %q", out)
			}
			data, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateReportJSON(data); err != nil {
				t.Fatalf("report invalid: %v", err)
			}
			if len(rep.Metrics) == 0 {
				t.Fatal("experiment reported no metrics")
			}
		})
	}
}

// TestTenantsScaling is the acceptance check for concurrent multi-tenant
// serving: at 4 tenants, adding clients must keep raising throughput
// (at least 2x going from 1 to 8 clients), per-tenant fair-share billing
// must stay balanced, and the deepest sweep point must carry device
// telemetry with every die busy.
func TestTenantsScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 12 sweep points; skipped in -short")
	}
	e, err := Get("tenants")
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := e.RunWithReport(Params{})
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{}
	for _, m := range rep.Metrics {
		metrics[m.Name] = m.Value
	}
	if sp := metrics["speedup_t4_c8_over_c1"]; sp < 2 {
		t.Fatalf("4-tenant client speedup %.2fx < 2x\n%s", sp, out)
	}
	// With symmetric closed-loop clients, no tenant should be starved:
	// min/max billed service at the deepest point stays above half.
	if f := metrics["fairness_t4_c8"]; f < 0.5 {
		t.Fatalf("fair-share billing ratio %.2f < 0.5 at t4/c8\n%s", f, out)
	}
	if len(rep.Devices) != 1 {
		t.Fatalf("%d device reports, want 1 (deepest point)", len(rep.Devices))
	}
	for _, ds := range rep.Devices[0].Dies {
		if ds.BusyNs <= 0 {
			t.Fatalf("die %d idle at t4/c8: %+v", ds.Die, ds)
		}
	}
}

func TestScaledHelper(t *testing.T) {
	if scaled(1000, 0.5) != 500 {
		t.Fatal("scaled arithmetic wrong")
	}
	if scaled(10, 0.0001) != 1 {
		t.Fatal("scaled must clamp to 1")
	}
}

func TestLinkRigBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a device; skipped in -short")
	}
	p := Params{Scale: 0.004, Seed: 1}
	rig, err := newLinkRig(p, 0, 4096, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rig.dev.Capacity() == 0 {
		t.Fatal("empty device")
	}
	if n := nodesForDevice(rig.dev.CapacityBytes()); n < 500 {
		t.Fatalf("nodesForDevice = %d", n)
	}
}
