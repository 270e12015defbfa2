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
//	dev, _ := share.OpenDevice(share.DefaultConfig(1024))
//	t := share.NewTask("client")
//	dev.WritePage(t, 0, oldData)
//	dev.WritePage(t, 1, newData)
//	dev.Share(t, []share.Pair{{Dst: 0, Src: 1, Len: 1}}) // atomic remap
//
// Deeper integrations live in the internal packages: fsim (a file system
// with the SHARE ioctl), innodb and couch (database engines with SHARE
// modes), and bench (the paper's experiments). The package examples
// (example_test.go, run by go test) show the public API on realistic
// scenarios.
package share

import (
	"share/internal/ftl"
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

// Config assembles a device: NAND geometry and timing, FTL tuning,
// optional fault plan and media-aging model (see ssd.Config).
type Config = ssd.Config

// DefaultConfig returns a device of the given NAND block count with 4 KiB
// pages, 128 pages per block and the FTL's default tuning. 1024 blocks ≈
// 512 MiB raw.
func DefaultConfig(blocks int) Config { return ssd.DefaultConfig(blocks) }

// OpenDevice creates a fresh simulated device.
func OpenDevice(cfg Config) (*Device, error) { return ssd.New("share-ssd", cfg) }

// NewTask returns a standalone virtual-time task for single-threaded use.
// Multi-client experiments use a sim.Scheduler instead.
func NewTask(name string) *Task { return sim.NewSoloTask(name) }

// ErrBatch is returned when a single SHARE command exceeds the device's
// atomic limit; Device.ShareAll splits a pair list for you.
var ErrBatch = ftl.ErrBatch

// DefaultTiming exposes the MLC NAND latencies used by the simulator.
func DefaultTiming() nand.Timing { return nand.DefaultTiming() }
