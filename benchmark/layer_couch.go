package main

import (
	"share/internal/couch"
)

// Adapter for internal/couch. Touches: couch.Config{ShareMode, BatchSize,
// CompactThreshold, DocCacheEntries, MaxFanout}, couch.Open, Store.{Get,
// Set, Commit, Compact, NeedsCompaction, Stats, Degraded},
// couch.Stats.{Sets, Gets, Commits, DocPagesWritten, NodePagesWritten,
// HeaderPages, SharePairs, Compactions}, couch.CompactStats.{Elapsed,
// DocsMoved, BytesWritten}.

type store struct{ s *couch.Store }

// openCouch opens the store as internal/bench/couch_exps.go does for
// Fig. 7 at batch 1: compaction early enough that the old and new files
// fit side by side, a document cache of a tenth of the records, and a
// fan-out cap that keeps the index at the paper's three levels.
func openCouch(t *task, fs filesystem, share bool, records int) (store, error) {
	fanout := 4
	for fanout*fanout*fanout < records {
		fanout++
	}
	s, err := couch.Open(t, fs.fs, couch.Config{
		ShareMode:        share,
		BatchSize:        1,
		CompactThreshold: 0.45,
		DocCacheEntries:  records / 10,
		MaxFanout:        fanout,
	})
	return store{s}, err
}

func (s store) get(t *task, key []byte) ([]byte, bool, error) { return s.s.Get(t, key) }
func (s store) set(t *task, key, val []byte) error            { return s.s.Set(t, key, val) }
func (s store) commit(t *task) error                          { return s.s.Commit(t) }
func (s store) needsCompaction() bool                         { return s.s.NeedsCompaction() }
func (s store) degraded() bool                                { return s.s.Degraded() }

// compaction is one Compact call as the store reports it.
type compaction struct {
	virtNs, docs, bytes int64
}

func (s store) compact(t *task) (compaction, error) {
	cs, err := s.s.Compact(t)
	return compaction{cs.Elapsed, cs.DocsMoved, cs.BytesWritten}, err
}

type couchCounters struct{ sets, commits, docPages, nodePages, headerPages, sharePairs, compactions int64 }

func (s store) counters() couchCounters {
	st := s.s.Stats()
	return couchCounters{st.Sets, st.Commits, st.DocPagesWritten, st.NodePagesWritten, st.HeaderPages, st.SharePairs, st.Compactions}
}

func couchMetrics(m metricSet, before, after couchCounters, ops int64) {
	sets := float64(after.sets - before.sets)
	pages := (after.docPages - before.docPages) + (after.nodePages - before.nodePages) + (after.headerPages - before.headerPages)
	m["couch.pages_per_set"] = ratio(float64(pages), sets)
	m["couch.node_pages_per_set"] = ratio(float64(after.nodePages-before.nodePages), sets)
	m["couch.share_pairs_per_set"] = ratio(float64(after.sharePairs-before.sharePairs), sets)
	m["couch.commits_per_op"] = ratio(float64(after.commits-before.commits), float64(ops))
	m["couch.compactions"] = float64(after.compactions - before.compactions)
}
