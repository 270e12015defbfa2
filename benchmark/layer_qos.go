package main

import (
	"share/internal/qos"
)

// Adapter for internal/qos. Touches: qos.NewFairShare, FairShare.{Admit,
// Done, Stats}, qos.Stats.{Admits, Throttles, Delayed, Consumed}.

type qosCounters struct {
	admits, throttles, delayedNs int64
	minBill, maxBill             int64 // least and most billed tenant
	billedNs                     int64 // virtual device service time billed to all tenants
}

func readQoS(f *qos.FairShare) qosCounters {
	st := f.Stats(newSoloTask("stats"))
	c := qosCounters{admits: st.Admits, throttles: st.Throttles, delayedNs: st.Delayed}
	first := true
	for _, bill := range st.Consumed {
		if first || bill < c.minBill {
			c.minBill = bill
		}
		if bill > c.maxBill {
			c.maxBill = bill
		}
		first = false
		c.billedNs += bill
	}
	return c
}

// add pools another round's counters; fairness pools as the sum of the
// rounds' least and most billed tenants.
func (a *qosCounters) add(b qosCounters) {
	a.admits += b.admits
	a.throttles += b.throttles
	a.delayedNs += b.delayedNs
	a.minBill += b.minBill
	a.maxBill += b.maxBill
	a.billedNs += b.billedNs
}

func qosMetrics(m metricSet, c qosCounters, ops int64) {
	m["qos.throttle_ratio"] = ratio(float64(c.throttles), float64(c.admits))
	m["qos.delayed_virt_ms_per_kop"] = ratio(float64(c.delayedNs)/1e6*1000, float64(ops))
	m["qos.fairness"] = ratio(float64(c.minBill), float64(c.maxBill))
}

// probeQoS times one Admit + Done pair with two tenants present, neither
// ahead: the gate's bookkeeping without a throttle.
func probeQoS(rc *runCtx, m metricSet) {
	ops := rc.probeOps(500_000)
	f := qos.NewFairShare(0)
	t := newSoloTask("probe")
	tenants := [2]string{"a", "b"}
	m["qos.admit_done_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(i int) {
			f.Admit(t, tenants[i&1])
			t.Advance(1000)
			f.Done(t, tenants[i&1], 1000)
		})
	})
}
