package bufpool

import (
	"reflect"
	"testing"

	"share/internal/sim"
)

func dirty(t *testing.T, pool *Pool, task *sim.Task, pageNo uint32) {
	t.Helper()
	f, err := pool.Get(task, pageNo)
	if err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	f.Release()
}

// Pages dirtied between BeginCollect and EndCollect come back sorted and
// stay out of FlushSome meanwhile; pages dirtied outside are fair game.
func TestCollectIsNoSteal(t *testing.T) {
	pool, fl, task := testPool(t, 8)
	dirty(t, pool, task, 7) // before the transaction
	pool.BeginCollect()
	for _, p := range []uint32{5, 2, 9, 2} {
		dirty(t, pool, task, p)
	}
	if err := pool.FlushSome(task, 8); err != nil {
		t.Fatal(err)
	}
	if fl.pages != 1 || pool.DirtyCount() != 3 {
		t.Fatalf("flushed %d pages, %d still dirty; want only page 7 flushed", fl.pages, pool.DirtyCount())
	}
	if got := pool.EndCollect(); !reflect.DeepEqual(got, []uint32{2, 5, 9}) {
		t.Fatalf("EndCollect = %v", got)
	}
	dirty(t, pool, task, 1) // after the transaction: not collected
	if got := pool.EndCollect(); len(got) != 0 {
		t.Fatalf("second EndCollect = %v", got)
	}
	if err := pool.FlushSome(task, 8); err != nil {
		t.Fatal(err)
	}
	if pool.DirtyCount() != 0 {
		t.Fatalf("%d pages still dirty after the set was closed", pool.DirtyCount())
	}
}

// Protect pins are refcounted: a page two commits dirtied stays out of
// FlushSome until both have unprotected it. FlushAll ignores the pins.
func TestProtectIsRefcounted(t *testing.T) {
	pool, fl, task := testPool(t, 8)
	dirty(t, pool, task, 3)
	dirty(t, pool, task, 4)
	pool.Protect([]uint32{3, 4})
	pool.Protect([]uint32{3})
	pool.Unprotect([]uint32{3, 4})
	if err := pool.FlushSome(task, 8); err != nil {
		t.Fatal(err)
	}
	if fl.pages != 1 || pool.DirtyCount() != 1 {
		t.Fatalf("flushed %d pages, %d dirty; want page 4 flushed and page 3 held", fl.pages, pool.DirtyCount())
	}
	pool.Unprotect([]uint32{3})
	if err := pool.FlushSome(task, 8); err != nil {
		t.Fatal(err)
	}
	if pool.DirtyCount() != 0 {
		t.Fatal("page 3 still held after its last pin dropped")
	}
	dirty(t, pool, task, 5)
	pool.Protect([]uint32{5})
	if err := pool.FlushAll(task); err != nil {
		t.Fatal(err)
	}
	if pool.DirtyCount() != 0 {
		t.Fatal("FlushAll skipped a protected page")
	}
}
