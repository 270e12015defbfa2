// Package share is the public API of the SHARE flash-storage reproduction
// (Oh et al., "SHARE Interface in Flash Storage for Relational and NoSQL
// Databases", SIGMOD 2016).
//
// It exposes a simulated SHARE-capable SSD: a page-mapped FTL over a NAND
// model, extended with the paper's SHARE(LPN1, LPN2, length) command that
// atomically remaps one logical page range onto the physical pages of
// another. Host software uses it to gain write atomicity — and zero-copy
// compaction and file copies — without the redundant second write that
// journaling and copy-on-write schemes otherwise pay.
//
// Quick start:
//
//	dev, _ := share.OpenDevice(share.DeviceOptions{Blocks: 1024})
//	t := share.NewTask("client")
//	dev.WritePage(t, 0, oldData)
//	dev.WritePage(t, 1, newData)
//	dev.Share(t, []share.Pair{{Dst: 0, Src: 1, Len: 1}}) // atomic remap
//
// Deeper integrations live in the internal packages: fsim (a file system
// with the SHARE ioctl), innodb and couch (database engines with SHARE
// modes), and bench (the paper's experiments). The examples/ directory
// shows the public API on realistic scenarios.
package share

import (
	"fmt"

	"share/internal/ftl"
	"share/internal/metrics"
	"share/internal/nand"
	"share/internal/sim"
	"share/internal/ssd"
)

// Pair is one SHARE remapping: Dst's logical pages are remapped onto the
// physical pages currently mapped by Src. Len counts mapping units.
type Pair = ssd.Pair

// Device is a simulated SHARE-capable SSD.
type Device = ssd.Device

// Task carries a client's virtual clock; every device operation charges
// simulated service and queueing time to it.
type Task = sim.Task

// Stats aggregates device counters (host traffic, GC, copybacks, wear).
// Device.Stats scopes counters to the epoch started by ResetStats;
// Device.LifetimeStats returns since-birth totals.
type Stats = ssd.Stats

// Cmd labels a device command class in the metrics recorder returned by
// Device.Metrics (latency histograms, GC-stall attribution, FTL trace).
type Cmd = metrics.Cmd

// NumCmds bounds the Cmd enumeration for iteration.
const NumCmds = metrics.NumCmds

// DeviceOptions sizes and tunes a device. Zero values select defaults.
type DeviceOptions struct {
	// Blocks is the NAND block count (128 pages of 4 KiB each per block
	// by default). 1024 blocks ≈ 512 MiB raw.
	Blocks int
	// PageSize overrides the 4096-byte mapping unit (tests use 512).
	PageSize int
	// PagesPerBlock overrides the 128-page erase block.
	PagesPerBlock int
	// Channels and DiesPerChannel describe the NAND array's parallelism.
	// Setting either switches the device from the geometry-blind lump-sum
	// queue to per-die scheduling: blocks stripe across dies, GC runs
	// die-locally, and operations on different dies overlap in time (only
	// same-die and same-channel-bus work serializes). Both default to 1
	// when the other is set; both zero keeps the legacy single-queue model.
	Channels       int
	DiesPerChannel int
	// OverProvision overrides the 10% GC headroom fraction.
	OverProvision float64
	// ShareTableCap bounds the device's reverse-mapping table, as on the
	// OpenSSD prototype (250/500). 0 means unlimited.
	ShareTableCap int
	// PowerCapacitor models a capacitor-backed device whose RAM-buffered
	// mapping deltas are already durable.
	PowerCapacitor bool
	// SpareBlocks overrides the block-retirement budget carved out of the
	// over-provisioned area (0 derives it). Once that many blocks have
	// been retired — factory-bad, program or erase failures, wear-out —
	// the device degrades to read-only.
	SpareBlocks int
	// Fault optionally injects NAND failures: factory-bad blocks plus
	// scheduled or seeded program/erase/read faults (see nand.FaultPlan).
	Fault *FaultPlan
	// Media optionally installs an endogenous media-aging model: per-page
	// raw bit-error risk grows with wear, read disturb and retention age,
	// reads escalate through the FTL's ECC retry ladder as risk crosses the
	// model's limits, and Device.PatrolStep drives the background patrol
	// scrubber that refreshes blocks before they rot past recovery (see
	// nand.MediaModel; DefaultMediaModel gives calibrated defaults).
	Media *MediaModel
	// PatrolThresholdPct overrides the patrol refresh trigger as a percent
	// of the media model's fast-ECC limit (0 means the default 80).
	PatrolThresholdPct int
	// Streams configures n host-visible write streams, each with its own
	// open NAND blocks, so hosts can segregate objects with different
	// lifetimes (logs vs heap pages vs compaction output) and cut GC write
	// amplification. 0 keeps the legacy single-stream device with
	// byte-identical reports. The count is validated against the per-die
	// free-block headroom at mount (ftl.StreamConfigError).
	Streams int
	// AutoStream classifies unhinted writes into the configured streams by
	// per-LPN update frequency (hot pages migrate to higher streams).
	// Requires Streams >= 2.
	AutoStream bool
}

// FaultPlan schedules NAND failures for fault-injection runs: factory-bad
// blocks, transient/permanent program faults, erase faults and read
// errors, either at the Nth operation or by seeded probability.
type FaultPlan = nand.FaultPlan

// NewFaultPlan returns an empty fault plan with the given probability seed.
func NewFaultPlan(seed int64) *FaultPlan { return nand.NewFaultPlan(seed) }

// MediaModel parameterizes endogenous media aging: seeded per-page
// weakness plus wear, read-disturb and retention-driven raw bit-error
// growth, with the ECC strength limits that grade reads into clean,
// corrected, retried, soft-decoded or lost.
type MediaModel = nand.MediaModel

// DefaultMediaModel returns a media model with calibrated default weights
// and ECC limits, seeded for deterministic per-page weakness.
func DefaultMediaModel(seed int64) *MediaModel { return nand.DefaultMediaModel(seed) }

// OpenDevice creates a fresh simulated device.
func OpenDevice(opts DeviceOptions) (*Device, error) {
	blocks := opts.Blocks
	if blocks == 0 {
		blocks = 1024
	}
	cfg := ssd.DefaultConfig(blocks)
	if opts.PageSize != 0 {
		cfg.Geometry.PageSize = opts.PageSize
	}
	if opts.PagesPerBlock != 0 {
		cfg.Geometry.PagesPerBlock = opts.PagesPerBlock
	}
	cfg.Geometry.Channels = opts.Channels
	cfg.Geometry.DiesPerChannel = opts.DiesPerChannel
	if opts.OverProvision != 0 {
		cfg.FTL.OverProvision = opts.OverProvision
	}
	cfg.FTL.ShareTableCap = opts.ShareTableCap
	cfg.FTL.PowerCapacitor = opts.PowerCapacitor
	cfg.FTL.SpareBlocks = opts.SpareBlocks
	cfg.Fault = opts.Fault
	cfg.Media = opts.Media
	cfg.FTL.PatrolThresholdPct = opts.PatrolThresholdPct
	cfg.FTL.HostStreams = opts.Streams
	cfg.FTL.AutoStream = opts.AutoStream
	return ssd.New("share-ssd", cfg)
}

// TierRole names a device's function in a multi-device deployment:
// tablespace data, redo log, or flash-extended cache.
type TierRole string

// The recognized tier roles. A deployment has exactly one data tier;
// log and cache tiers are optional, at most one each.
const (
	TierData  TierRole = "data"
	TierLog   TierRole = "log"
	TierCache TierRole = "cache"
)

// Tier is one device in an N-device tier configuration.
type Tier struct {
	Role TierRole
	Opts DeviceOptions
}

// TierOptions generalizes the two-device (data + log) setup into an
// N-device tier configuration: each tier names its role and carries its
// own DeviceOptions, so the log tier can be small and capacitor-backed
// and the cache tier fast and fault-injected independently of the data
// tier. OpenTiers validates the set and opens every device.
type TierOptions struct {
	Tiers []Tier
}

// TierConfigError reports a tier configuration rejected by OpenTiers:
// which role failed, why, and (when a lower layer produced the failure,
// e.g. a fault plan that does not fit the tier's geometry) the
// underlying cause, reachable through errors.Is/As.
type TierConfigError struct {
	Role   TierRole
	Reason string
	Err    error // underlying cause, nil for pure configuration errors
}

func (e *TierConfigError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("share: %s tier: %s: %v", e.Role, e.Reason, e.Err)
	}
	return fmt.Sprintf("share: %s tier: %s", e.Role, e.Reason)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *TierConfigError) Unwrap() error { return e.Err }

// Tiers holds the opened devices of a tier configuration, by role.
// Absent optional tiers are nil.
type Tiers struct {
	Data  *Device
	Log   *Device
	Cache *Device
}

// OpenTiers validates a tier configuration and opens one device per
// tier. It rejects, with *TierConfigError: unknown or duplicate roles, a
// missing data tier, a cache tier too small to leave the FTL one erase
// block of GC headroom (such a cache degrades to read-only almost
// immediately — worse than no cache), and device-level failures such as
// a fault plan whose block or operation references do not fit the
// tier's geometry (the nand.ErrFaultPlan cause is wrapped).
func OpenTiers(opts TierOptions) (*Tiers, error) {
	seen := make(map[TierRole]bool)
	for _, tier := range opts.Tiers {
		switch tier.Role {
		case TierData, TierLog, TierCache:
		default:
			return nil, &TierConfigError{Role: tier.Role, Reason: "unknown role"}
		}
		if seen[tier.Role] {
			return nil, &TierConfigError{Role: tier.Role, Reason: "duplicate role"}
		}
		seen[tier.Role] = true
	}
	if !seen[TierData] {
		return nil, &TierConfigError{Role: TierData, Reason: "missing: every deployment needs one data tier"}
	}
	out := &Tiers{}
	for _, tier := range opts.Tiers {
		if tier.Role == TierCache {
			blocks := tier.Opts.Blocks
			if blocks == 0 {
				blocks = 1024
			}
			op := tier.Opts.OverProvision
			if op == 0 {
				op = ftl.DefaultConfig().OverProvision
			}
			if int(float64(blocks)*op) < 1 {
				return nil, &TierConfigError{
					Role: TierCache,
					Reason: fmt.Sprintf("%d blocks at %.0f%% over-provisioning leave no GC headroom (need at least one spare erase block)",
						blocks, op*100),
				}
			}
		}
		dev, err := OpenDevice(tier.Opts)
		if err != nil {
			return nil, &TierConfigError{Role: tier.Role, Reason: "cannot open device", Err: err}
		}
		switch tier.Role {
		case TierData:
			out.Data = dev
		case TierLog:
			out.Log = dev
		case TierCache:
			out.Cache = dev
		}
	}
	return out, nil
}

// NewTask returns a standalone virtual-time task for single-threaded use.
// Multi-client experiments use a sim.Scheduler instead.
func NewTask(name string) *Task { return sim.NewSoloTask(name) }

// ErrFull is returned when the device has no reclaimable space.
var ErrFull = ftl.ErrFull

// ErrBatch is returned when a single SHARE command exceeds the device's
// atomic limit; Device.ShareAll splits a pair list for you.
var ErrBatch = ftl.ErrBatch

// DefaultTiming exposes the MLC NAND latencies used by the simulator.
func DefaultTiming() nand.Timing { return nand.DefaultTiming() }
