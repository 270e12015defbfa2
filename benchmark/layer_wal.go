package main

import (
	"share/internal/wal"
)

// Adapter for internal/wal. Touches: wal.New, Log.Append, Log.Sync,
// Log.Truncate, Log.Remaining, Log.PagesWritten, Log.BytesAppended.

type walCounters struct{ pages, bytes int64 }

func readWAL(l *wal.Log) walCounters {
	return walCounters{pages: l.PagesWritten(), bytes: l.BytesAppended()}
}

func walMetrics(m metricSet, before, after walCounters, commits int64) {
	pages := after.pages - before.pages
	m["wal.pages_per_commit"] = ratio(float64(pages), float64(commits))
	m["wal.bytes_per_page"] = ratio(float64(after.bytes-before.bytes), float64(pages))
}

// probeWAL appends one page image and fsyncs, the shape of a one-page
// InnoDB commit, on the capacitor-backed log drive.
func probeWAL(rc *runCtx, m metricSet) error {
	ops := rc.probeOps(20_000)
	dev, err := newLogDevice(64)
	if err != nil {
		return err
	}
	log, err := wal.New(dev.d, 0, uint32(dev.capacity()/2))
	if err != nil {
		return err
	}
	t := newSoloTask("probe")
	rec := make([]byte, 5+4096)
	var fe errTally
	m["wal.append_sync_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(int) {
			if log.Remaining() < 8 {
				fe.keep(log.Truncate(t))
			}
			_, err := log.Append(t, rec)
			fe.keep(err)
			fe.keep(log.Sync(t))
		})
	})
	return fe.err
}
