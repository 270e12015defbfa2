package innodb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"share/internal/sim"
)

// Redo record kinds.
const (
	recPageImage = 1 // [kind u8][pageNo u32][image ...]
	recCommit    = 2 // [kind u8]
)

// Txn is one transaction. Writes are buffered (read-your-writes) and
// applied to the trees only at commit, after the redo records are durable,
// so an uncommitted transaction never reaches storage and rollback is
// simply discarding the buffer.
type Txn struct {
	e      *Engine
	t      *sim.Task
	writes map[int]map[string]*[]byte // table id -> key -> value (nil = delete)
	order  []writeRef                 // apply order
	done   bool
}

type writeRef struct {
	table int
	key   string
}

// Begin starts a transaction, taking the engine's transaction lock. The
// lock wait is charged to the task's virtual clock.
func (e *Engine) Begin(t *sim.Task) *Txn {
	e.mu.Lock(t)
	return &Txn{e: e, t: t, writes: make(map[int]map[string]*[]byte)}
}

// Get reads a key, observing the transaction's own uncommitted writes.
func (tx *Txn) Get(tb *Table, key []byte) ([]byte, bool, error) {
	if m, ok := tx.writes[tb.id]; ok {
		if v, ok := m[string(key)]; ok {
			if v == nil {
				return nil, false, nil
			}
			out := make([]byte, len(*v))
			copy(out, *v)
			return out, true, nil
		}
	}
	return tb.tree.Get(tx.t, key)
}

// Put buffers an insert/update.
func (tx *Txn) Put(tb *Table, key, val []byte) error {
	v := make([]byte, len(val))
	copy(v, val)
	tx.record(tb.id, key, &v)
	return nil
}

// Delete buffers a delete.
func (tx *Txn) Delete(tb *Table, key []byte) error {
	tx.record(tb.id, key, nil)
	return nil
}

func (tx *Txn) record(table int, key []byte, val *[]byte) {
	m, ok := tx.writes[table]
	if !ok {
		m = make(map[string]*[]byte)
		tx.writes[table] = m
	}
	ks := string(key)
	if _, seen := m[ks]; !seen {
		tx.order = append(tx.order, writeRef{table: table, key: ks})
	}
	m[ks] = val
}

// Scan iterates committed keys in [start, end); like InnoDB's read views
// it does not merge the transaction's own uncommitted buffer (the
// workloads here never scan what they just wrote).
func (tx *Txn) Scan(tb *Table, start, end []byte, fn func(k, v []byte) bool) error {
	return tb.tree.Scan(tx.t, start, end, fn)
}

// Commit makes the transaction durable and visible:
//
//  1. apply the buffered writes to the trees while the pool collects the
//     pages they dirty and keeps them from flushing (no-steal);
//  2. log a full image of every page the transaction dirtied (first
//     write of redo), then a commit record;
//  3. release the transaction lock and join the group-commit rendezvous:
//     one leader fsyncs the log for every commit record appended so far,
//     so concurrent sessions share a single flush (wal.GroupCommitter);
//  4. once the record is durable, release the no-steal pins.
//
// The dirtied pages stay pinned (refcounted, pool.Protect) from the end of
// the apply across the group sync: another session holding e.mu may
// trigger an adaptive flush while this commit awaits durability, and
// stealing a subset of this transaction's pages would put a torn
// transaction on disk.
//
// A crash before the commit record is durable leaves no trace: dirty
// pages never reached the tablespace. A crash after it is replayed from
// the page images.
func (tx *Txn) Commit() error {
	t := tx.t
	e := tx.e
	if tx.done {
		return fmt.Errorf("innodb: commit of finished txn")
	}
	tx.done = true

	if len(tx.order) == 0 {
		e.mu.Unlock(t)
		return nil
	}
	if e.Degraded() {
		e.mu.Unlock(t)
		return ErrReadOnly
	}

	// Make room in the redo ring before touching anything.
	if e.log.Remaining() < 256 || e.imagesSinceCkpt > e.cfg.MaxLogImages {
		if err := e.checkpointLocked(t); err != nil {
			e.mu.Unlock(t)
			return err
		}
	}

	// 1. Apply to trees under no-steal protection. The pins take over from
	// the collection at once: they cover the redo append and outlive e.mu.
	e.pool.BeginCollect()
	err := tx.apply()
	dirtied := e.pool.EndCollect()
	e.pool.Protect(dirtied)

	// 2. Redo: full images of dirtied pages, then the commit record.
	var myLSN int64
	if err == nil {
		myLSN, err = e.logCommit(t, dirtied)
	}
	if err != nil {
		e.pool.Unprotect(dirtied)
		e.mu.Unlock(t)
		return err
	}

	// 3. Register with the group committer's drain counter and release the
	// transaction lock so the next session can apply while we sync.
	e.gc.Enter(t)
	e.mu.Unlock(t)

	err = e.gc.Sync(t, myLSN)

	// 4. Durable (or failed): drop the no-steal pins either way — on a
	// failed sync the engine degrades and nothing flushes anymore.
	e.pool.Unprotect(dirtied)
	if err != nil {
		return e.Note(err)
	}
	atomic.AddInt64(&e.st.Commits, 1)

	// Adaptive flushing: keep the dirty ratio under control so foreground
	// evictions rarely stall (InnoDB's page cleaner, done synchronously).
	// Pool access requires e.mu, so the ratio is checked under it.
	e.mu.Lock(t)
	var ferr error
	if float64(e.pool.DirtyCount()) > e.cfg.DirtyRatio*float64(e.pool.Capacity()) {
		ferr = e.pool.FlushSome(t, e.cfg.DWBPages)
	}
	e.mu.Unlock(t)
	if ferr != nil {
		// The commit record is already durable: the transaction
		// committed. A read-only device only stops the background
		// flush; redo still covers the committed pages.
		if derr := e.Note(ferr); !errors.Is(derr, ErrReadOnly) {
			return ferr
		}
	}
	return nil
}

// apply replays the buffered writes onto the trees in order and re-renders
// the meta page (roots/hwm may have moved).
func (tx *Txn) apply() error {
	e := tx.e
	for _, ref := range tx.order {
		tb := e.tables[e.order[ref.table]]
		v := tx.writes[ref.table][ref.key]
		var err error
		if v == nil {
			_, err = tb.tree.Delete(tx.t, []byte(ref.key))
		} else {
			err = tb.tree.Put(tx.t, []byte(ref.key), *v)
		}
		if err != nil {
			return err
		}
	}
	return e.persistMeta(tx.t)
}

// logCommit appends a full image of every dirtied page and then the commit
// record, returning the record's LSN.
func (e *Engine) logCommit(t *sim.Task, dirtied []uint32) (int64, error) {
	rec := make([]byte, 5+e.cfg.PageSize)
	for _, pageNo := range dirtied {
		f, err := e.pool.Get(t, pageNo)
		if err != nil {
			return 0, err
		}
		rec[0] = recPageImage
		binary.LittleEndian.PutUint32(rec[1:], pageNo)
		copy(rec[5:], f.Data)
		f.Release()
		if _, err := e.log.Append(t, rec); err != nil {
			return 0, err
		}
		e.imagesSinceCkpt++
	}
	lsn, err := e.log.Append(t, []byte{recCommit})
	return lsn, e.Note(err)
}

// Rollback discards the buffered writes.
func (tx *Txn) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	tx.e.mu.Unlock(tx.t)
}

// keyUpperBound returns the smallest key greater than every key with the
// given prefix — a helper for prefix scans in the workloads.
func KeyUpperBound(prefix []byte) []byte {
	out := bytes.Clone(prefix)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil // prefix of all 0xFF: scan to end
}
