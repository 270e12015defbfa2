package main

import (
	"share/internal/bufpool"
	"share/internal/fsim"
)

// Adapter for internal/bufpool. Touches: bufpool.New, bufpool.Flusher,
// bufpool.PageImage.{PageNo, Data}, Pool.Get, Pool.Stats, Frame.Release,
// bufpool.Stats.{Hits, Misses, Evictions, FlushedPages}.

type poolCounters struct{ hits, misses, evictions, flushed int64 }

func readPool(p *bufpool.Pool) poolCounters {
	st := p.Stats()
	return poolCounters{st.Hits, st.Misses, st.Evictions, st.FlushedPages}
}

func (a poolCounters) sub(b poolCounters) poolCounters {
	return poolCounters{a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions, a.flushed - b.flushed}
}

// bufpoolMetrics also reports btree.page_gets_per_op: the trees reach
// pages only through the pool, so its gets are theirs.
func bufpoolMetrics(m metricSet, d poolCounters, ops int64) {
	gets := d.hits + d.misses
	m["bufpool.hit_ratio"] = ratio(float64(d.hits), float64(gets))
	m["bufpool.evictions_per_op"] = ratio(float64(d.evictions), float64(ops))
	m["bufpool.flushed_pages_per_op"] = ratio(float64(d.flushed), float64(ops))
	m["btree.page_gets_per_op"] = ratio(float64(gets), float64(ops))
}

// homeFlusher writes dirty pages in place, the plainest policy a pool
// can be given.
type homeFlusher struct {
	file     *fsim.File
	pageSize int
}

func (h homeFlusher) FlushBatch(t *task, pages []bufpool.PageImage) error {
	for _, pg := range pages {
		if _, err := h.file.WriteAt(t, pg.Data, int64(pg.PageNo)*int64(h.pageSize)); err != nil {
			return err
		}
	}
	return nil
}

// probePool builds a pool of capacity pages over a new file on a fresh
// drive, for this probe and the btree one.
func probePool(t *task, capacity int) (*bufpool.Pool, error) {
	dev, err := newPaperDevice(256)
	if err != nil {
		return nil, err
	}
	fsys, err := formatFS(t, dev)
	if err != nil {
		return nil, err
	}
	file, err := fsys.fs.Create(t, "pool")
	if err != nil {
		return nil, err
	}
	return bufpool.New(file, dev.pageSize(), capacity, homeFlusher{file, dev.pageSize()})
}

// probeBufpool times a hit (a resident page) and a miss (cycling through
// four times the capacity, every victim clean: eviction plus file read).
func probeBufpool(rc *runCtx, m metricSet) error {
	const capacity = 64
	ops := rc.probeOps(50_000)
	t := newSoloTask("probe")
	pool, err := probePool(t, capacity)
	if err != nil {
		return err
	}
	var fe errTally
	get := func(pageNo uint32) {
		f, err := pool.Get(t, pageNo)
		if err != nil {
			fe.keep(err)
			return
		}
		f.Release()
	}
	m["bufpool.get_hit_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(i int) { get(uint32(i % 8)) })
	})
	m["bufpool.get_miss_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(i int) { get(uint32(i % (4 * capacity))) })
	})
	return fe.err
}
