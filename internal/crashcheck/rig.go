package crashcheck

import (
	"fmt"

	"share/internal/fsim"
	"share/internal/nand"
	"share/internal/sim"
	"share/internal/ssd"
)

// rig is the simulated machine under one cell: the task every sequential
// step runs on, the devices whose program/erase boundaries the matrix
// cuts, and the file system on the data device. It owns the only power
// failure in the package, so every cell — sequential, concurrent,
// fault-plan — restarts through the same sequence and the same checkers.
type rig struct {
	task  *sim.Task
	data  *ssd.Device   // file system + engine data
	log   *ssd.Device   // capacitor-backed WAL device (innodb, pgmini), or nil
	cache *ssd.Device   // flash-extended cache device (cache rows), or nil
	devs  []*ssd.Device // what the matrix cuts: data, then log, then cache
	fs    *fsim.FS
}

// addDevice builds a device with pages and blocks small enough that a few
// dozen transactions cross GC, journal wrap and checkpoint boundaries.
func (r *rig) addDevice(name string, blocks int, tune func(*ssd.Config)) (*ssd.Device, error) {
	cfg := ssd.DefaultConfig(blocks)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	tune(&cfg)
	d, err := ssd.New(name, cfg)
	if err == nil {
		r.devs = append(r.devs, d)
	}
	return d, err
}

func timing(read, program, erase sim.Duration) nand.Timing {
	return nand.Timing{ReadPage: read, Program: program, Erase: erase, Transfer: 5 * sim.Microsecond}
}

// agingMedia puts a device on decaying media tuned for crash testing:
// retention pulls blocks over the lowered patrol threshold within a few
// transactions so refreshes are frequent, while the effectively infinite
// retry and soft-ECC limits keep every read recoverable — the point is to
// cut inside refresh relocation/erase windows, never to lose data, which
// would change the oracle.
func agingMedia(cfg *ssd.Config) {
	cfg.Media = &nand.MediaModel{Seed: 3, WearWeight: 1, DisturbWeight: 2,
		RetentionWeight: 400, RetentionUnit: sim.Second, PageNoise: 20,
		FastLimit: 600, RetryLimit: 1 << 40, SoftLimit: 1 << 41}
	cfg.FTL.PatrolThresholdPct = 50
}

// newRig builds the devices row c asks for and formats the data device.
func newRig(c *cell) (r *rig, err error) {
	const us = sim.Microsecond
	r = &rig{task: sim.NewSoloTask("crashcheck")}
	r.data, err = r.addDevice(c.name()+"-data", 512, func(cfg *ssd.Config) {
		if c.aging {
			agingMedia(cfg)
		}
	})
	if err == nil {
		r.fs, err = fsim.Format(r.task, r.data, 32)
	}
	if err == nil && c.engine.log {
		// Fast and power-capacitor-backed, like the paper's log device.
		r.log, err = r.addDevice(c.name()+"-log", 256, func(cfg *ssd.Config) {
			cfg.Timing = timing(20*us, 50*us, 500*us)
			cfg.FTL.PowerCapacitor = true
		})
	}
	if err == nil && c.cache {
		// Small and fast, contributing its own boundary space: cache
		// fills, mapping-journal appends, map checkpoints, writebacks.
		r.cache, err = r.addDevice(c.name()+"-cache", 128, func(cfg *ssd.Config) {
			cfg.Timing = timing(25*us, 200*us, 1000*us)
			if c.cacheSpares != 0 {
				cfg.FTL.SpareBlocks = c.cacheSpares
			}
		})
	}
	return r, err
}

// mutatingOps snapshots every device's program/erase counter.
func (r *rig) mutatingOps() []int64 {
	var ops []int64
	for _, d := range r.devs {
		ops = append(ops, d.MutatingOps())
	}
	return ops
}

// powerCycle is the whole-machine power failure and restart below the
// engine: every device loses power and runs FTL recovery, each FTL's
// structural invariants are checked, the file system is remounted
// (journal replay) and fsck'd. The caller reopens its engine afterwards.
func (r *rig) powerCycle() error {
	for i, d := range r.devs {
		d.Crash()
		if err := d.Recover(r.task); err != nil {
			return fmt.Errorf("dev %d recover: %w", i, err)
		}
		if err := d.FTLForTest().CheckInvariants(); err != nil {
			return fmt.Errorf("dev %d FTL invariants after recovery: %w", i, err)
		}
	}
	fs, err := fsim.Mount(r.task, r.data)
	if err != nil {
		return err
	}
	r.fs = fs
	if err := fs.Fsck(); err != nil {
		return fmt.Errorf("fsck after remount: %w", err)
	}
	return nil
}
