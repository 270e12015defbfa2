package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"
)

// span is one fixed-size trace record. Spans nest workload -> leg ->
// phase -> call; calls are the ones the harness itself makes into the
// stack (spans inside the program are ROADMAP item 5). Virtual times are
// the calling task's clock and 0 where the caller has none.
type span struct {
	ID        int32
	Parent    int32
	Layer, Op uint16 // indexes into tracer.names
	WallStart int64  // ns since the tracer was made
	WallEnd   int64
	VirtStart int64 // virtual ns
	VirtEnd   int64
}

// Phases every workload uses, so aggregates line up across workloads.
const (
	phSetup   = "setup"
	phLoad    = "load"
	phWarmup  = "warmup"
	phMeasure = "measure"
	phVerify  = "verify"
	phProbe   = "probe"
)

// tracer collects spans in memory; nothing is written until the run
// ends. A nil *tracer is tracing off: every method returns at once and
// no span is ever allocated, which is what keeps the untraced numbers
// independent of this file.
type tracer struct {
	epoch time.Time
	spans []span
	names []string
	index map[string]uint16
}

const noSpan int32 = -1

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), index: map[string]uint16{}}
}

func (tr *tracer) name(s string) uint16 {
	if i, ok := tr.index[s]; ok {
		return i
	}
	i := uint16(len(tr.names))
	tr.names = append(tr.names, s)
	tr.index[s] = i
	return i
}

// now is the wall clock spans use. It is only read when tracing is on.
func (tr *tracer) now() int64 {
	if tr == nil {
		return 0
	}
	return int64(time.Since(tr.epoch))
}

// open starts a span that will have children; close ends it.
func (tr *tracer) open(parent int32, layer, op string, virt int64) int32 {
	if tr == nil {
		return noSpan
	}
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Layer: tr.name(layer), Op: tr.name(op),
		WallStart: tr.now(), VirtStart: virt})
	return id
}

func (tr *tracer) close(id int32, virt int64) {
	if tr == nil {
		return
	}
	tr.spans[id].WallEnd = tr.now()
	tr.spans[id].VirtEnd = virt
}

// opID interns a (layer, op) pair once so the per-call path does no map
// lookup.
type opID struct{ layer, op uint16 }

func (tr *tracer) op(layer, op string) opID {
	if tr == nil {
		return opID{}
	}
	return opID{tr.name(layer), tr.name(op)}
}

// call records a completed leaf span.
func (tr *tracer) call(parent int32, o opID, w0, w1, v0, v1 int64) {
	if tr == nil {
		return
	}
	tr.spans = append(tr.spans, span{ID: int32(len(tr.spans)), Parent: parent, Layer: o.layer, Op: o.op,
		WallStart: w0, WallEnd: w1, VirtStart: v0, VirtEnd: v1})
}

// leafBuf collects leaf spans on a goroutine of its own (a serve-tenants
// client); merge folds them into the tracer once the goroutine is done.
type leafBuf struct{ spans []span }

func (b *leafBuf) call(parent int32, o opID, w0, w1 int64) {
	b.spans = append(b.spans, span{Parent: parent, Layer: o.layer, Op: o.op, WallStart: w0, WallEnd: w1})
}

func (tr *tracer) merge(b *leafBuf) {
	for _, s := range b.spans {
		s.ID = int32(len(tr.spans))
		tr.spans = append(tr.spans, s)
	}
	b.spans = b.spans[:0]
}

// spanAgg is the per-(layer, op) aggregate the span file carries.
type spanAgg struct {
	Layer      string  `json:"layer"`
	Op         string  `json:"op"`
	Count      int     `json:"count"`
	WallTotalS float64 `json:"wall_total_s"`
	WallSelfS  float64 `json:"wall_self_s"` // total minus time covered by child spans
	VirtTotalS float64 `json:"virt_total_s"`
	WallP50Ns  int64   `json:"wall_p50_ns"`
	WallP99Ns  int64   `json:"wall_p99_ns"`
	VirtP50Ns  int64   `json:"virt_p50_ns"`
	VirtP99Ns  int64   `json:"virt_p99_ns"`
}

type opSamples struct{ wall, virt []int64 }

// samples groups span durations by "layer.op".
func (tr *tracer) samples() map[string]*opSamples {
	out := map[string]*opSamples{}
	for i := range tr.spans {
		s := &tr.spans[i]
		k := tr.names[s.Layer] + "." + tr.names[s.Op]
		o := out[k]
		if o == nil {
			o = &opSamples{}
			out[k] = o
		}
		o.wall = append(o.wall, s.WallEnd-s.WallStart)
		o.virt = append(o.virt, s.VirtEnd-s.VirtStart)
	}
	for _, o := range out {
		slices.Sort(o.wall)
		slices.Sort(o.virt)
	}
	return out
}

func (tr *tracer) aggregate() []spanAgg {
	childWall := make([]int64, len(tr.spans))
	for i := range tr.spans {
		if p := tr.spans[i].Parent; p >= 0 {
			childWall[p] += tr.spans[i].WallEnd - tr.spans[i].WallStart
		}
	}
	self := map[string]int64{}
	for i := range tr.spans {
		s := &tr.spans[i]
		self[tr.names[s.Layer]+"."+tr.names[s.Op]] += s.WallEnd - s.WallStart - childWall[i]
	}
	var out []spanAgg
	for k, o := range tr.samples() {
		var wall, virt int64
		for i := range o.wall {
			wall += o.wall[i]
			virt += o.virt[i]
		}
		layer, op, _ := strings.Cut(k, ".") // layer names carry no dot
		out = append(out, spanAgg{
			Layer: layer, Op: op, Count: len(o.wall),
			WallTotalS: float64(wall) / 1e9, WallSelfS: float64(self[k]) / 1e9, VirtTotalS: float64(virt) / 1e9,
			WallP50Ns: percentile(o.wall, 50), WallP99Ns: percentile(o.wall, 99),
			VirtP50Ns: percentile(o.virt, 50), VirtP99Ns: percentile(o.virt, 99),
		})
	}
	slices.SortFunc(out, func(a, b spanAgg) int {
		return cmp.Or(strings.Compare(a.Layer, b.Layer), strings.Compare(a.Op, b.Op))
	})
	return out
}

// rawSpanCap is how many raw spans the span file keeps per workload.
const rawSpanCap = 10000

type rawSpan struct {
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"`
	Layer     string `json:"layer"`
	Op        string `json:"op"`
	WallStart int64  `json:"wall_start"`
	WallEnd   int64  `json:"wall_end"`
	VirtStart int64  `json:"virt_start"`
	VirtEnd   int64  `json:"virt_end"`
}

// attribution is one row of the "where the wall time goes" table: a
// layer's call count from its counters times the probe's cost per call.
// Rows with Inside set break a parent row down and do not add to the sum.
type attribution struct {
	Row    string  `json:"row"`
	Inside string  `json:"inside,omitempty"`
	Count  float64 `json:"count"`
	NsEach float64 `json:"ns_each"`
	WallS  float64 `json:"wall_s"`
}

type spanFile struct {
	Schema      string        `json:"schema"`
	Workload    string        `json:"workload"`
	Spans       int           `json:"spans"`
	Aggregates  []spanAgg     `json:"aggregates"`
	MeasureS    float64       `json:"measure_wall_s"`
	Attribution []attribution `json:"attribution"`
	UnexplainS  float64       `json:"unexplained_wall_s"`
	Raw         []rawSpan     `json:"raw_spans"`
}

func (tr *tracer) write(path, workload string, measureS float64, rows []attribution) error {
	f := spanFile{Schema: "share-benchmark-spans/v1", Workload: workload, Spans: len(tr.spans),
		Aggregates: tr.aggregate(), MeasureS: measureS, Attribution: rows, UnexplainS: unexplained(measureS, rows)}
	for i := range tr.spans {
		if i == rawSpanCap {
			break
		}
		s := &tr.spans[i]
		f.Raw = append(f.Raw, rawSpan{s.ID, s.Parent, tr.names[s.Layer], tr.names[s.Op],
			s.WallStart, s.WallEnd, s.VirtStart, s.VirtEnd})
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func unexplained(measureS float64, rows []attribution) float64 {
	for _, r := range rows {
		if r.Inside == "" {
			measureS -= r.WallS
		}
	}
	return measureS
}

func row(name, inside string, count, nsEach float64) attribution {
	return attribution{Row: name, Inside: inside, Count: count, NsEach: nsEach, WallS: count * nsEach / 1e9}
}

func printAttribution(w io.Writer, workload string, measureS float64, rows []attribution) {
	fmt.Fprintf(w, "  where the wall time goes (%s, traced measure phase %.3f s; count x probe cost):\n", workload, measureS)
	for _, r := range rows {
		name := r.Row
		if r.Inside != "" {
			name = "  of which " + name
		}
		fmt.Fprintf(w, "    %-40s %12.0f x %9.0f ns = %7.3f s  %5.1f%%\n",
			name, r.Count, r.NsEach, r.WallS, 100*ratio(r.WallS, measureS))
	}
	u := unexplained(measureS, rows)
	fmt.Fprintf(w, "    %-40s %37.3f s  %5.1f%%\n", "unexplained remainder", u, 100*ratio(u, measureS))
}
