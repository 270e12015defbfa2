package bench

import (
	"encoding/json"
	"fmt"

	"share/internal/ftl"
	"share/internal/nand"
	"share/internal/ssd"
	"share/internal/stats"
)

// ReportSchema identifies the BENCH_*.json layout; bump it when a field
// changes meaning or disappears (adding fields is compatible).
const ReportSchema = "share-bench/v1"

// Metric is one named scalar an experiment reports (a cell of a paper
// table or a point on a figure).
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ConfigInfo records the provenance of a run: everything needed to
// reproduce it bit-for-bit.
type ConfigInfo struct {
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// OpScale is recorded by the experiments that read Params.OpScale,
	// and only when it departs from the default of 1, so default-run
	// reports stay byte-identical to their pinned fixtures.
	OpScale int `json:"op_scale,omitempty"`
}

// DeviceReport is the telemetry snapshot of one device at the end of the
// measured epoch: counters are epoch-scoped (post-ResetStats), latency
// distributions come from the device's metrics recorder, all in virtual
// time.
type DeviceReport struct {
	Label              string                   `json:"label"`
	Blocks             int                      `json:"blocks"`
	PageSize           int                      `json:"page_size"`
	QueueDepth         int                      `json:"queue_depth"`
	CapacityPages      int                      `json:"capacity_pages"`
	WriteAmplification float64                  `json:"write_amplification"`
	FTL                ftl.Stats                `json:"ftl"`
	Chip               nand.Stats               `json:"chip"`
	Latency            map[string]stats.Summary `json:"latency_ms,omitempty"`
	GCStallByCmd       map[string]int64         `json:"gc_stall_ns,omitempty"`
	Events             map[string]int64         `json:"events,omitempty"`

	// Parallelism telemetry, present only for die-scheduled devices
	// (explicit channel/die geometry); geometry-blind devices omit all
	// four fields, keeping their reports byte-identical to earlier runs.
	Channels       int               `json:"channels,omitempty"`
	DiesPerChannel int               `json:"dies_per_channel,omitempty"`
	Dies           []ssd.DieStat     `json:"dies,omitempty"`
	ChannelUtil    []ssd.ChannelStat `json:"channel_util,omitempty"`
}

// EngineReport is a host engine's robustness telemetry: recovery work
// (torn pages restored, redo applied, WAL replay truncations) and
// degradation state (read-only transitions), keyed by counter name so
// each engine reports the fields it has. Maps marshal with sorted keys,
// preserving report determinism.
type EngineReport struct {
	Label    string           `json:"label"`
	Counters map[string]int64 `json:"counters"`
	Degraded bool             `json:"degraded,omitempty"`
}

// Report is the machine-readable result of one experiment run, written
// as BENCH_<experiment>.json by cmd/sharebench -json. Two runs with the
// same Params produce byte-identical reports: every field derives from
// the deterministic virtual-time simulation, maps render with sorted
// keys, and no wall-clock time is recorded.
type Report struct {
	Schema     string         `json:"schema"`
	Experiment string         `json:"experiment"`
	Title      string         `json:"title"`
	Config     ConfigInfo     `json:"config"`
	Metrics    []Metric       `json:"metrics,omitempty"`
	Devices    []DeviceReport `json:"devices,omitempty"`
	Engines    []EngineReport `json:"engines,omitempty"`
	Output     string         `json:"output"`
}

// NewReport starts a report for one experiment run; p's defaults are
// applied first so the recorded provenance matches what actually ran.
func NewReport(e Experiment, p Params) *Report {
	p.setDefaults()
	return &Report{
		Schema:     ReportSchema,
		Experiment: e.ID,
		Title:      e.Title,
		Config:     ConfigInfo{Scale: p.Scale, Seed: p.Seed},
	}
}

// Metric appends one named scalar result.
func (r *Report) Metric(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

// Device appends the full telemetry snapshot of dev under label: the
// epoch counters, derived write amplification, per-command latency
// summaries, GC-stall attribution and FTL event counts.
func (r *Report) Device(label string, dev *ssd.Device) {
	st := dev.Stats()
	rec := dev.Metrics()
	geo := dev.Geometry()
	dr := DeviceReport{
		Label:              label,
		Blocks:             geo.Blocks,
		PageSize:           geo.PageSize,
		QueueDepth:         dev.QueueDepth(),
		CapacityPages:      dev.Capacity(),
		WriteAmplification: st.WriteAmplification(),
		FTL:                st.FTL,
		Chip:               st.Chip,
		Latency:            rec.LatencySummaries(),
		GCStallByCmd:       rec.GCStallByCmd(),
		Events:             rec.EventCounts(),
	}
	if dev.DieScheduled() {
		dr.Channels = geo.NumChannels()
		dr.DiesPerChannel = geo.DiesPerChannel
		dr.Dies = dev.DieTelemetry()
		dr.ChannelUtil = dev.ChannelTelemetry()
	}
	r.Devices = append(r.Devices, dr)
}

// Engine appends a host engine's robustness counters under label.
func (r *Report) Engine(label string, degraded bool, counters map[string]int64) {
	r.Engines = append(r.Engines, EngineReport{Label: label, Counters: counters, Degraded: degraded})
}

// JSON renders the report with stable formatting (indented, sorted map
// keys, trailing newline).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ValidateReportJSON checks that data parses as a report of the current
// schema with the identity fields present — the smoke check `make
// bench-json` applies to generated files.
func ValidateReportJSON(data []byte) error {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench: report does not parse: %w", err)
	}
	if r.Schema != ReportSchema {
		return fmt.Errorf("bench: schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.Experiment == "" || r.Title == "" {
		return fmt.Errorf("bench: report missing experiment identity")
	}
	if r.Config.Scale <= 0 || r.Config.Seed == 0 {
		return fmt.Errorf("bench: report missing config provenance")
	}
	if r.Output == "" {
		return fmt.Errorf("bench: report has no output")
	}
	return nil
}
