package main

import (
	"math/rand"

	"share/internal/fsim"
)

// Adapter for internal/fsim. Touches: fsim.Format, FS.Create, FS.Fsck,
// FS.Stats, FS.ShareRange, File.Allocate, File.WriteAt, File.ReadAt,
// File.Sync, File.Size, fsim.Stats.{MetaJournalWrites, MetaHomeWrites}.

type filesystem struct{ fs *fsim.FS }

// formatFS lays the file system down with the 256-page journal
// internal/bench/rig.go uses.
func formatFS(t *task, dev device) (filesystem, error) {
	fs, err := fsim.Format(t, dev.d, 256)
	return filesystem{fs}, err
}

func (f filesystem) fsck() error { return f.fs.Fsck() }

// metaWrites is the file system's own page writes so far: journal pages
// and in-place metadata pages.
func (f filesystem) metaWrites() int64 {
	st := f.fs.Stats()
	return st.MetaJournalWrites + st.MetaHomeWrites
}

// fsimMetrics reports metadata traffic over a window: the paper's
// "45 %, not 50 %" effect is this share of the host writes.
func fsimMetrics(m metricSet, metaWrites, hostWrites, ops int64) {
	m["fsim.meta_writes_per_op"] = ratio(float64(metaWrites), float64(ops))
	m["fsim.meta_write_share"] = ratio(float64(metaWrites), float64(hostWrites))
}

// probeFsim drives a fresh file system on a fresh legacy-geometry drive:
// overwrite in place, read, append + fsync (allocation scan and journal
// commit) and a one-page ShareRange between two files.
func probeFsim(rc *runCtx, m metricSet) error {
	const filePages = 4096 // 16 MiB
	ops := rc.probeOps(20_000)
	t := newSoloTask("probe")
	dev, err := newPaperDevice(256)
	if err != nil {
		return err
	}
	fsys, err := formatFS(t, dev)
	if err != nil {
		return err
	}
	fs := fsys.fs
	ps := int64(dev.pageSize())
	rng := rand.New(rand.NewSource(rc.seed))
	buf := make([]byte, ps)
	var fe errTally

	a, err := fs.Create(t, "a")
	if err != nil {
		return err
	}
	b, err := fs.Create(t, "b")
	if err != nil {
		return err
	}
	for _, f := range []*fsim.File{a, b} {
		if err := f.Allocate(t, 0, filePages*ps); err != nil {
			return err
		}
	}
	for p := int64(0); p < filePages; p++ { // map every page of a, so reads and SHAREs have a source
		if _, err := a.WriteAt(t, buf, p*ps); err != nil {
			return err
		}
	}
	m["fsim.pwrite_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(int) {
			_, err := a.WriteAt(t, buf, int64(rng.Intn(filePages))*ps)
			fe.keep(err)
		})
	})
	m["fsim.read_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(int) {
			_, err := a.ReadAt(t, buf, int64(rng.Intn(filePages))*ps)
			fe.keep(err)
		})
	})
	m["fsim.share_range_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(int) {
			off := int64(rng.Intn(filePages)) * ps
			fe.keep(fs.ShareRange(t, b, off, a, off, ps))
		})
	})
	log, err := fs.Create(t, "log")
	if err != nil {
		return err
	}
	m["fsim.append_sync_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops/10, func(int) {
			_, err := log.WriteAt(t, buf, log.Size())
			fe.keep(err)
			fe.keep(log.Sync(t))
		})
	})
	fe.keep(fsys.fsck())
	return fe.err
}
