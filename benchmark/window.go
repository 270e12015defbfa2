package main

import (
	"runtime"
	rtm "runtime/metrics"
	"slices"
	"time"
)

// opClock timestamps every k-th completed op of a harness-owned loop. The
// three simulated workloads have no per-request wall latency (their
// clients are coroutines of one scheduler), so their wall_p50_us and
// wall_p99_us are the wall time per op over consecutive chunks of the
// window: what a background burst — GC, checkpoint, compaction — costs
// the run, which the mean rate hides.
type opClock struct {
	k, n, next int
	marks      []int64 // wall ns at op 0, k, 2k, ...
	start      time.Time
}

func newOpClock(k, totalOps int) *opClock {
	return &opClock{k: k, next: k, marks: make([]int64, 1, totalOps/k+2), start: time.Now()}
}

func (c *opClock) tick() {
	c.n++
	if c.n == c.next {
		c.marks = append(c.marks, int64(time.Since(c.start)))
		c.next += c.k
	}
}

// chunks returns (wall ns, ops) per chunk.
func (c *opClock) chunks() []chunk {
	out := make([]chunk, 0, len(c.marks))
	for i := 1; i < len(c.marks); i++ {
		out = append(out, chunk{c.marks[i] - c.marks[i-1], float64(c.k)})
	}
	return out
}

type chunk struct {
	ns  int64
	ops float64
}

// progressSampler is the opClock of a loop the harness does not own
// (linkbench.Run): a side goroutine reads a progress counter the program
// keeps atomically and cuts the window into fixed wall intervals.
type progressSampler struct {
	stop, done chan struct{}
	t, n       []int64
}

func startSampler(every time.Duration, read func() int64) *progressSampler {
	s := &progressSampler{stop: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	s.t = append(s.t, 0)
	s.n = append(s.n, read())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.t = append(s.t, int64(time.Since(start)))
				s.n = append(s.n, read())
				return
			case <-tick.C:
				s.t = append(s.t, int64(time.Since(start)))
				s.n = append(s.n, read())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its chunks, scaling the progress
// counter to ops (the counter counts a fixed share of them). An interval
// without progress is folded into the next one.
func (s *progressSampler) finish(totalOps int64) []chunk {
	close(s.stop)
	<-s.done
	last := len(s.n) - 1
	perCount := ratio(float64(totalOps), float64(s.n[last]-s.n[0]))
	var out []chunk
	from := 0
	for i := 1; i <= last; i++ {
		if s.n[i] == s.n[from] && i != last {
			continue
		}
		out = append(out, chunk{s.t[i] - s.t[from], float64(s.n[i]-s.n[from]) * perCount})
		from = i
	}
	return out
}

// chunkStats turns chunks into the median and 99th-percentile wall
// microseconds per op and the rate in each fifth of the window.
func chunkStats(cs []chunk) (p50us, p99us float64, fifths []float64) {
	var per []float64
	for _, c := range cs {
		if c.ops > 0 {
			per = append(per, float64(c.ns)/1e3/c.ops)
		}
	}
	slices.Sort(per)
	p50us, p99us = percentile(per, 50), percentile(per, 99)
	for f := 0; f < 5; f++ {
		lo, hi := len(cs)*f/5, len(cs)*(f+1)/5
		var ns int64
		var ops float64
		for _, c := range cs[lo:hi] {
			ns += c.ns
			ops += c.ops
		}
		fifths = append(fifths, ratio(ops, float64(ns)/1e9))
	}
	return p50us, p99us, fifths
}

// hostCounters is the Go runtime's own account of a window.
type hostCounters struct {
	mallocs      uint64
	gcCPU, total float64 // cpu-seconds
	sysBytes     uint64
}

func readHost() hostCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtm.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtm.Read(s)
	h := hostCounters{mallocs: ms.Mallocs, sysBytes: ms.Sys}
	if s[0].Value.Kind() == rtm.KindFloat64 {
		h.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtm.KindFloat64 {
		h.total = s[1].Value.Float64()
	}
	return h
}

// hostMetrics reports the window between two readings. mem_sys_mb is the
// cost guard for time bought with memory (device cloning, caches).
func hostMetrics(m metricSet, before, after hostCounters, ops int64) {
	m["host.allocs_per_op"] = ratio(float64(after.mallocs-before.mallocs), float64(ops))
	m["host.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.total-before.total)
	m["host.mem_sys_mb"] = float64(after.sysBytes) / 1e6
}
