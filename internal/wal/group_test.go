package wal

import (
	"fmt"
	"sync"
	"testing"

	"share/internal/sim"
)

// commitSession runs n commits the way an engine session does: append the
// record and enter the committer under the engine latch, sync outside it.
// Every returned Sync must find its record durable.
func commitSession(t *testing.T, l *Log, g *GroupCommitter, latch *sim.Mutex, task *sim.Task, n int) {
	for i := 0; i < n; i++ {
		latch.Lock(task)
		lsn, err := l.Append(task, []byte("commit"))
		g.Enter(task)
		latch.Unlock(task)
		if err == nil {
			err = g.Sync(task, lsn)
		}
		if err != nil {
			t.Error(err)
			return
		}
		if d := l.DurableLSN(); d <= lsn {
			t.Errorf("Sync(%d) returned with durable horizon %d", lsn, d)
		}
	}
}

// Scheduler sessions overlap in virtual time: leaders must be fewer than
// commits, some commits must ride another's sync, and a Drain taken under
// the latch must return with nothing in flight.
func TestGroupCommitterCoalescesAndDrains(t *testing.T) {
	l, _, _ := testLog(t, 512)
	g := NewGroupCommitter(l)
	var latch sim.Mutex
	const sessions, per = 8, 10
	sched := sim.NewScheduler()
	for s := 0; s < sessions; s++ {
		sched.Go(fmt.Sprintf("sess%d", s), func(task *sim.Task) {
			commitSession(t, l, g, &latch, task, per)
		})
	}
	sched.Go("checkpointer", func(task *sim.Task) {
		latch.Lock(task)
		g.Drain(task)
		if d, n := l.DurableLSN(), l.LSN(); d != n {
			t.Errorf("after Drain under the latch: durable %d of %d appended", d, n)
		}
		latch.Unlock(task)
	})
	sched.Run()
	if g.GroupCommits() >= sessions*per {
		t.Fatalf("GroupCommits = %d for %d commits: no coalescing", g.GroupCommits(), sessions*per)
	}
	if g.GroupedTxns() == 0 {
		t.Fatal("GroupedTxns = 0: no commit rode another's sync")
	}
}

// The same rendezvous on real goroutines (solo tasks), for the race
// detector.
func TestGroupCommitterSoloTasks(t *testing.T) {
	l, _, _ := testLog(t, 512)
	g := NewGroupCommitter(l)
	var latch sim.Mutex
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			commitSession(t, l, g, &latch, sim.NewSoloTask(fmt.Sprintf("sess%d", s)), 20)
		}(s)
	}
	wg.Wait()
	g.Drain(sim.NewSoloTask("ckpt"))
	if d, n := l.DurableLSN(), l.LSN(); d != n {
		t.Fatalf("durable %d of %d appended", d, n)
	}
}
