package bench

import (
	"fmt"
	"strings"

	"share/internal/couch"
	"share/internal/fsim"
	"share/internal/qos"
	"share/internal/sim"
	"share/internal/ssd"
)

// The tenants experiment measures the concurrent multi-tenant serving
// stack: several closed-loop clients, spread across per-tenant couch
// stores in one file system on one 4-channel device behind fair-share
// admission, write batched documents at the same virtual time. Within a
// tenant the store latch serializes sessions; across tenants the only
// shared stages are the file-system metadata latch and the device, so
// throughput must scale with client count until the channels saturate.
// The BENCH_tenants.json regression pins that scaling (client speedup at
// 4 tenants) and the fairness of admission (per-tenant billed service
// stays balanced).
func init() {
	register(Experiment{
		ID:    "tenants",
		Title: "Tenants: multi-tenant serving throughput vs clients and tenants",
		Run:   runTenants,
	})
}

const (
	tenantsBlocks    = 256
	tenantsOpsPerCli = 150
	tenantsValBytes  = 1024
	tenantsBatch     = 8
)

var (
	tenantsTenants = []int{1, 2, 4}
	tenantsClients = []int{1, 2, 4, 8}
)

// tenantsPoint runs one (tenants, clients) sweep point and returns the
// write throughput in ops/s, the per-tenant billed service from the
// admission gate, and the device for telemetry.
func tenantsPoint(p Params, tenants, clients int) (float64, map[string]sim.Duration, *ssd.Device, error) {
	cfg := ssd.DefaultConfig(tenantsBlocks)
	cfg.Geometry.Channels = 4
	cfg.Geometry.DiesPerChannel = 1
	dev, err := ssd.New(fmt.Sprintf("tenants-t%d-c%d", tenants, clients), cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	adm := qos.NewFairShare(0)
	dev.SetAdmission(adm)
	setup := sim.NewSoloTask("setup")
	fs, err := fsim.Format(setup, dev, 64)
	if err != nil {
		return 0, nil, nil, err
	}
	stores := make([]*couch.Store, tenants)
	for i := range stores {
		stores[i], err = couch.Open(setup, fs, couch.Config{
			Name:      fmt.Sprintf("tenant%d.couch", i),
			BatchSize: tenantsBatch,
		})
		if err != nil {
			return 0, nil, nil, err
		}
	}
	t0 := setup.Now()

	end, err := closedLoop(t0, clients, func(task *sim.Task, c int) error {
		tenant := c % tenants
		task.SetTenant(fmt.Sprintf("tenant%d", tenant))
		rng := newRand(p.Seed + int64(c) + 1)
		st := stores[tenant]
		val := make([]byte, tenantsValBytes)
		for n := 0; n < tenantsOpsPerCli; n++ {
			rng.Read(val)
			key := []byte(fmt.Sprintf("c%dk%03d", c, rng.Intn(64)))
			if err := st.Set(task, key, val); err != nil {
				return err
			}
		}
		return st.Commit(task)
	})
	if err != nil {
		return 0, nil, nil, err
	}
	elapsed := float64(end-t0) / float64(sim.Second)
	tput := float64(clients*tenantsOpsPerCli) / elapsed
	consumed := adm.Stats(sim.NewSoloTask("stats")).Consumed
	return tput, consumed, dev, nil
}

func runTenants(p Params, r *Report) (string, error) {
	p.setDefaults()
	tput := map[int]map[int]float64{}
	var out strings.Builder
	fmt.Fprintf(&out, "tenants: batched 1 KiB document writes, %d-block 4-channel device, fair-share admission\n",
		tenantsBlocks)
	fmt.Fprintf(&out, "%-10s", "tenants")
	for _, c := range tenantsClients {
		fmt.Fprintf(&out, " cli=%-8d", c)
	}
	out.WriteByte('\n')
	maxTenants := tenantsTenants[len(tenantsTenants)-1]
	maxClients := tenantsClients[len(tenantsClients)-1]
	for _, tn := range tenantsTenants {
		tput[tn] = map[int]float64{}
		fmt.Fprintf(&out, "%-10d", tn)
		for _, cl := range tenantsClients {
			v, consumed, dev, err := tenantsPoint(p, tn, cl)
			if err != nil {
				return "", err
			}
			tput[tn][cl] = v
			r.Metric(fmt.Sprintf("tput_t%d_c%d", tn, cl), v, "ops/s")
			fmt.Fprintf(&out, " %-11s", fmtThroughput(v))
			if tn == maxTenants && cl == maxClients {
				r.Device(fmt.Sprintf("t%d_c%d", tn, cl), dev)
				// Fairness: smallest over largest per-tenant billed
				// service at the fullest sweep point — 1.0 is perfectly
				// even, small values mean a tenant was starved.
				var min, max sim.Duration
				for _, c := range consumed {
					if min == 0 || c < min {
						min = c
					}
					if c > max {
						max = c
					}
				}
				fair := 0.0
				if max > 0 {
					fair = float64(min) / float64(max)
				}
				r.Metric(fmt.Sprintf("fairness_t%d_c%d", tn, cl), fair, "ratio")
			}
		}
		out.WriteByte('\n')
	}
	speedup := 0.0
	if base := tput[maxTenants][1]; base > 0 {
		speedup = tput[maxTenants][maxClients] / base
	}
	r.Metric(fmt.Sprintf("speedup_t%d_c%d_over_c1", maxTenants, maxClients), speedup, "x")
	fmt.Fprintf(&out, "%d-tenant speedup from 1 to %d clients: %s\n",
		maxTenants, maxClients, ratio(tput[maxTenants][maxClients], tput[maxTenants][1]))
	return out.String(), nil
}
