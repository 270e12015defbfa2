package wal

import (
	"sync/atomic"

	"share/internal/sim"
)

// GroupCommitter coalesces the log syncs of concurrent transactions. A
// session appends its commit record under the engine latch, calls Enter
// (still under it), releases the latch and calls Sync: the first arrival
// becomes the leader and issues one Log.Sync covering every record appended
// so far; the rest wait for its broadcast. The fsync therefore overlaps
// the next session's apply phase. An engine checkpoint calls Drain under
// the engine latch before truncating the log.
//
// Locking: the committer's mutex sits below the engine latch (Enter and
// Drain take it under the latch) and nothing acquires the engine latch
// while holding it. Every Lock/Wait/Broadcast below is a scheduling point
// in virtual time, so their sequence is part of the simulated result.
type GroupCommitter struct {
	log *Log

	mu       sim.Mutex
	cond     sim.Cond // broadcast after each completed sync attempt
	drained  sim.Cond // broadcast when unsynced drops to zero
	syncing  bool     // a leader's sync is in flight
	durable  int64    // log LSN horizon made durable by group syncs
	gen      uint64   // completed sync attempts (failure detection)
	err      error    // outcome of the most recent sync attempt
	unsynced int      // commits between Enter and the end of their Sync

	groupCommits atomic.Int64
	groupedTxns  atomic.Int64
}

// NewGroupCommitter returns a committer syncing l.
func NewGroupCommitter(l *Log) *GroupCommitter { return &GroupCommitter{log: l} }

// Enter registers a commit whose record is appended but not yet durable.
// Call it before releasing the engine latch, so that Drain — which runs
// under that latch — can never miss a commit in flight. Each Enter must be
// paired with one Sync.
func (g *GroupCommitter) Enter(t *sim.Task) {
	g.mu.Lock(t)
	g.unsynced++
	g.mu.Unlock(t)
}

// Sync makes the commit record at lsn durable, coalescing with concurrent
// commits: a follower only syncs itself if the leader's flush predates its
// append. Called without the engine latch. Returns the outcome of the sync
// that covered (or failed) this transaction.
func (g *GroupCommitter) Sync(t *sim.Task, lsn int64) error {
	g.mu.Lock(t)
	grouped := false
	var err error
	for err == nil && g.durable <= lsn {
		if g.syncing {
			grouped = true
			gen := g.gen
			g.cond.Wait(t, &g.mu)
			if g.gen != gen && g.err != nil && g.durable <= lsn {
				err = g.err
			}
			continue
		}
		g.syncing = true
		g.mu.Unlock(t)
		serr := g.log.Sync(t)
		durable := g.log.DurableLSN()
		g.mu.Lock(t)
		g.syncing = false
		g.gen++
		g.err = serr
		if serr == nil {
			if durable > g.durable {
				g.durable = durable
			}
			g.groupCommits.Add(1)
		} else {
			err = serr
		}
		g.cond.Broadcast(t)
	}
	if grouped && err == nil {
		g.groupedTxns.Add(1)
	}
	g.unsynced--
	if g.unsynced == 0 {
		g.drained.Broadcast(t)
	}
	g.mu.Unlock(t)
	return err
}

// Drain waits until every entered commit has finished its Sync: their
// records must be durable before the log is truncated underneath them. It
// cannot deadlock when called under the engine latch — every unsynced
// commit released that latch before Sync, and holding it stops new commits
// from entering, so the count only falls.
func (g *GroupCommitter) Drain(t *sim.Task) {
	g.mu.Lock(t)
	for g.unsynced > 0 {
		g.drained.Wait(t, &g.mu)
	}
	g.mu.Unlock(t)
}

// GroupCommits returns the number of log syncs issued by leaders.
func (g *GroupCommitter) GroupCommits() int64 { return g.groupCommits.Load() }

// GroupedTxns returns the number of commits that rode another
// transaction's sync.
func (g *GroupCommitter) GroupedTxns() int64 { return g.groupedTxns.Load() }
