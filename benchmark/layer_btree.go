package main

import (
	"encoding/binary"
	"math/rand"

	"share/internal/btree"
	"share/internal/bufpool"
)

// Adapter for internal/btree. Touches: btree.Pager, btree.InitPage,
// btree.Open, Tree.Put, Tree.Get, Frame.{Data, MarkDirty, Release}.
// btree.page_gets_per_op is reported by layer_bufpool.go.

// hwmPager allocates pages at a high-water mark over a pool.
type hwmPager struct {
	pool *bufpool.Pool
	hwm  uint32
}

func (p *hwmPager) Get(t *task, pageNo uint32) (*bufpool.Frame, error) { return p.pool.Get(t, pageNo) }
func (p *hwmPager) Alloc(t *task) (uint32, error)                      { p.hwm++; return p.hwm, nil }
func (p *hwmPager) Free(t *task, pageNo uint32) error                  { return nil }
func (p *hwmPager) PageSize() int                                      { return p.pool.PageSize() }

// probeBtree inserts and looks up LinkBench-sized rows in a tree whose
// pool holds every page, so the numbers are the tree's own search, cell
// insert and split cost.
func probeBtree(rc *runCtx, m metricSet) error {
	ops := rc.probeOps(50_000)
	t := newSoloTask("probe")
	pool, err := probePool(t, 8192)
	if err != nil {
		return err
	}
	pager := &hwmPager{pool: pool}
	root, _ := pager.Alloc(t)
	f, err := pool.Get(t, root)
	if err != nil {
		return err
	}
	btree.InitPage(f.Data)
	f.MarkDirty()
	f.Release()
	tree := btree.Open(pager, root, nil)

	rng := rand.New(rand.NewSource(rc.seed))
	key := make([]byte, 9)
	val := make([]byte, 120)
	var fe errTally
	next := func() {
		key[0] = 'n'
		binary.BigEndian.PutUint64(key[1:], uint64(rng.Intn(4*ops)))
	}
	m["btree.insert_wall_ns"] = nsPerOp(ops, func(int) {
		next()
		fe.keep(tree.Put(t, key, val))
	})
	m["btree.get_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(int) {
			next()
			_, _, err := tree.Get(t, key)
			fe.keep(err)
		})
	})
	return fe.err
}
