package main

import (
	"encoding/binary"
	"math/rand"

	"share/internal/innodb"
)

// Adapter for internal/innodb. Touches: innodb.Config{PageSize,
// PoolBytes, FlushMode, DWBPages, DataBytes, LogPages}, innodb.Share,
// innodb.DWBOn, innodb.Open, Engine.{Stats, Pool, Log, Degraded,
// CreateTable, Begin}, Txn.{Put, Commit}, innodb.Stats.{Commits,
// FlushBatches, PagesToDWB, PagesToHome, SharePairs, Checkpoints,
// GroupedTxns}.

type engine struct{ e *innodb.Engine }

// openInnodb opens the engine as internal/bench/rig.go sizes it: 4 KiB
// pages, a 32-page doublewrite batch, the tablespace preallocated to 60 %
// of the data drive and the redo ring on half the log drive. share picks
// the flush pipeline: SHARE, or the stock doublewrite buffer it replaces.
func openInnodb(t *task, fs filesystem, data, log device, share bool, poolBytes int64) (engine, error) {
	mode := innodb.DWBOn
	if share {
		mode = innodb.Share
	}
	e, err := innodb.Open(t, fs.fs, log.d, innodb.Config{
		PageSize:  4096,
		PoolBytes: poolBytes,
		FlushMode: mode,
		DWBPages:  32,
		DataBytes: data.capacityBytes() * 60 / 100,
		LogPages:  uint32(log.capacity()) / 2,
	})
	return engine{e}, err
}

func (e engine) degraded() bool { return e.e.Degraded() }

// commits is the engine's atomically kept count of write transactions:
// the progress counter linkbench-innodb's sampler reads mid-run.
func (e engine) commits() int64 { return e.e.Stats().Commits }

type engineCounters struct {
	commits, flushBatches, toDWB, toHome, sharePairs, checkpoints, grouped int64
	pool                                                                   poolCounters
	wal                                                                    walCounters
}

// counters must only be called while no client runs: the pool's counters
// are plain fields.
func (e engine) counters() engineCounters {
	st := e.e.Stats()
	return engineCounters{
		commits: st.Commits, flushBatches: st.FlushBatches, toDWB: st.PagesToDWB, toHome: st.PagesToHome,
		sharePairs: st.SharePairs, checkpoints: st.Checkpoints, grouped: st.GroupedTxns,
		pool: readPool(e.e.Pool()), wal: readWAL(e.e.Log()),
	}
}

// engineMetrics reports innodb, bufpool, btree and wal over a window.
func engineMetrics(m metricSet, before, after engineCounters, ops int64) {
	commits := after.commits - before.commits
	m["innodb.commits_per_op"] = ratio(float64(commits), float64(ops))
	m["innodb.flush_batches_per_kop"] = ratio(float64(after.flushBatches-before.flushBatches)*1000, float64(ops))
	m["innodb.pages_to_dwb_per_op"] = ratio(float64(after.toDWB-before.toDWB), float64(ops))
	m["innodb.pages_to_home_per_op"] = ratio(float64(after.toHome-before.toHome), float64(ops))
	m["innodb.share_pairs_per_op"] = ratio(float64(after.sharePairs-before.sharePairs), float64(ops))
	m["innodb.checkpoints"] = float64(after.checkpoints - before.checkpoints)
	m["innodb.grouped_txn_ratio"] = ratio(float64(after.grouped-before.grouped), float64(commits))
	bufpoolMetrics(m, after.pool.sub(before.pool), ops)
	walMetrics(m, before.wal, after.wal, commits)
}

// probeInnodb times the shortest write transaction, Begin + Put + Commit
// in SHARE mode, on a fresh rig with a pool that holds the table.
func probeInnodb(rc *runCtx, m metricSet) error {
	ops := rc.probeOps(20_000)
	t := newSoloTask("probe")
	data, err := newPaperDevice(256)
	if err != nil {
		return err
	}
	log, err := newLogDevice(128)
	if err != nil {
		return err
	}
	fs, err := formatFS(t, data)
	if err != nil {
		return err
	}
	eng, err := openInnodb(t, fs, data, log, true, 8<<20)
	if err != nil {
		return err
	}
	tb, err := eng.e.CreateTable(t, "probe")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(rc.seed))
	key := make([]byte, 9)
	val := make([]byte, 120)
	var fe errTally
	m["innodb.commit_wall_ns"] = medianOf(3, func() float64 {
		return nsPerOp(ops, func(int) {
			key[0] = 'n'
			binary.BigEndian.PutUint64(key[1:], uint64(rng.Intn(ops)))
			tx := eng.e.Begin(t)
			if err := tx.Put(tb, key, val); err != nil {
				fe.keep(err)
				tx.Rollback()
				return
			}
			fe.keep(tx.Commit())
		})
	})
	return fe.err
}
