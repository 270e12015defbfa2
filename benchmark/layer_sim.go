package main

import (
	"time"

	"share/internal/sim"
)

// Adapter for internal/sim. Touches: sim.Task (Now, Advance, AdvanceTo,
// Yield, SetTenant), sim.NewSoloTask, sim.NewScheduler, Scheduler.Go,
// Scheduler.Run.

type (
	task      = sim.Task
	scheduler = sim.Scheduler
)

func newSoloTask(name string) *task { return sim.NewSoloTask(name) }
func newScheduler() *scheduler      { return sim.NewScheduler() }

const virtSecond = float64(sim.Second)

// probeSim measures one scheduler handoff: two tasks whose clocks
// alternate, so every Yield loses the elision test and goes through the
// dispatch loop and both channel sends.
func probeSim(rc *runCtx, m metricSet) {
	yields := rc.probeOps(100_000)
	m["sim.handoff_wall_ns"] = medianOf(3, func() float64 {
		s := newScheduler()
		for c := 0; c < 2; c++ {
			s.Go("ping", func(t *task) {
				for i := 0; i < yields; i++ {
					t.Advance(2)
					t.Yield()
				}
			})
		}
		w0 := time.Now()
		s.Run()
		return float64(time.Since(w0)) / float64(2*yields)
	})
}

// medianOf runs a probe batch n times and keeps the median, so one
// descheduled batch does not set the number.
func medianOf(n int, batch func() float64) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = batch()
	}
	return median(v)
}

// nsPerOp times ops calls of fn.
func nsPerOp(ops int, fn func(i int)) float64 {
	w0 := time.Now()
	for i := 0; i < ops; i++ {
		fn(i)
	}
	return float64(time.Since(w0)) / float64(ops)
}

// errTally counts the errors of many calls and keeps the first.
type errTally struct {
	n   int64
	err error
}

func (e *errTally) keep(err error) {
	if err == nil {
		return
	}
	e.n++
	if e.err == nil {
		e.err = err
	}
}

func (e *errTally) merge(o errTally) {
	e.n += o.n
	if e.err == nil {
		e.err = o.err
	}
}
