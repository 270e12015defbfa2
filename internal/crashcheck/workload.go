package crashcheck

import (
	"fmt"
	"math/rand"
	"strconv"

	"share/internal/couch"
	"share/internal/innodb"
	"share/internal/pgmini"
	"share/internal/sim"
	"share/internal/sqlmini"
)

// stack is one engine opened on a rig, driven and checked by Matrix.
type stack interface {
	// step applies session sess's transaction i on task t. A non-nil
	// error means the transaction was not acknowledged.
	step(t *sim.Task, sess, i int) error
	// reopen reopens the engine on the rig after a powerCycle, running
	// the engine's own crash recovery.
	reopen() error
	// verify checks the recovered state against the oracle: per session,
	// it must equal the model after acked[sess] transactions, or after
	// attempted[sess] when the in-flight commit became durable before
	// its ack. Any other state is an error.
	verify(acked, attempted []int) error
}

type put struct{ key, val []byte }

// kv is all the key/value workload needs from an engine: an atomic
// multi-key update that is durable when it returns, and a point read.
type kv interface {
	update(t *sim.Task, puts []put) error
	get(t *sim.Task, key []byte) ([]byte, bool, error)
}

// checkpointer is the engine checkpoint (flush batch through
// DWB/SHARE/atomic write) a row with a checkpoint cadence drives.
type checkpointer interface {
	checkpoint(t *sim.Task) error
}

// engine names one engine in one mode and creates or recovers it on a
// rig: open for the key/value engines, openPg for pgmini's TPC-B.
type engine struct {
	name, mode string
	log        bool // wants the capacitor-backed log device
	open       func(r *rig) (kv, error)
	openPg     func(r *rig) (*pgmini.DB, error)
}

type innoKV struct {
	eng *innodb.Engine
	tbl *innodb.Table
}

// inno is innodb with a buffer pool of poolBytes; rows with a cache
// device get it attached, in write-back mode if asked.
func inno(mode innodb.FlushMode, poolBytes int64, writeBack bool) engine {
	return engine{name: "innodb", mode: mode.String(), log: true, open: func(r *rig) (kv, error) {
		eng, err := innodb.Open(r.task, r.fs, r.log, innodb.Config{
			PageSize: 1024, PoolBytes: poolBytes, FlushMode: mode, DWBPages: 8,
			DataBytes: 1024 * 1024, LogPages: 2048,
			CacheDev: r.cache, CacheWriteBack: writeBack,
		})
		if err != nil {
			return nil, err
		}
		// A table lost across recovery comes back empty and fails verify.
		tbl := eng.Table("t")
		if tbl == nil {
			tbl, err = eng.CreateTable(r.task, "t")
		}
		return innoKV{eng, tbl}, err
	}}
}

func (k innoKV) update(t *sim.Task, puts []put) error {
	tx := k.eng.Begin(t)
	for _, p := range puts {
		if err := tx.Put(k.tbl, p.key, p.val); err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}

func (k innoKV) get(t *sim.Task, key []byte) ([]byte, bool, error) {
	tx := k.eng.Begin(t)
	defer tx.Rollback()
	return tx.Get(k.tbl, key)
}

func (k innoKV) checkpoint(t *sim.Task) error { return k.eng.Checkpoint(t) }

type couchKV struct{ st *couch.Store }

// couchStore is couch with SHARE on or off. BatchSize 1 makes every Set
// an acknowledged commit, so couch rows keep one key per transaction.
func couchStore(mode string, share bool) engine {
	return engine{name: "couch", mode: mode, open: func(r *rig) (kv, error) {
		st, err := couch.Open(r.task, r.fs, couch.Config{BatchSize: 1, ShareMode: share})
		return couchKV{st}, err
	}}
}

func (k couchKV) update(t *sim.Task, puts []put) error {
	for _, p := range puts {
		if err := k.st.Set(t, p.key, p.val); err != nil {
			return err
		}
	}
	return nil
}

func (k couchKV) get(t *sim.Task, key []byte) ([]byte, bool, error) { return k.st.Get(t, key) }

type sqlKV struct{ db *sqlmini.DB }

// sql is sqlmini in one journal mode. The small WAL bound makes the
// matrix cross a WAL checkpoint every few transactions; the staging area
// holds the preload transaction and is reused by every commit after it.
func sql(mode sqlmini.Mode) engine {
	return engine{name: "sqlmini", mode: mode.String(), open: func(r *rig) (kv, error) {
		db, err := sqlmini.Open(r.task, r.fs, sqlmini.Config{
			Mode: mode, PageSize: 1024, CacheBytes: 16 * 1024, CheckpointEvery: 12, StagePages: 16,
		})
		return sqlKV{db}, err
	}}
}

func (k sqlKV) update(t *sim.Task, puts []put) error {
	return k.db.Update(t, func(tx *sqlmini.Tx) error {
		for _, p := range puts {
			if err := tx.Put(p.key, p.val); err != nil {
				return err
			}
		}
		return nil
	})
}

func (k sqlKV) get(t *sim.Task, key []byte) ([]byte, bool, error) { return k.db.Get(t, key) }

// pg is pgmini in one full-page-write mode, checkpointing every 10
// transactions so the matrix crosses checkpoints.
func pg(mode pgmini.Mode) engine {
	return engine{name: "pgmini", mode: mode.String(), log: true, openPg: func(r *rig) (*pgmini.DB, error) {
		return pgmini.Open(r.task, r.fs, r.log, pgmini.Config{
			Scale: 1, Mode: mode, PageSize: 512, PoolBytes: 64 * 1024, CheckpointEvery: 10,
		})
	}}
}

// shape is the deterministic key/value workload of a row. Each session
// owns a partition of `keys` keys that only its own transactions touch;
// transaction i writes val(i) to perTxn of them, so the partition's state
// after n transactions is a pure function of n.
type shape struct {
	keyFmt     string // one %d verb: the key's global index
	keys       int    // keys per session partition
	valBytes   int    // value size
	perTxn     int    // keys a transaction writes
	preloadTxn int    // keys per preload transaction; 0 preloads in one
	readStride int    // point reads after each commit (cache read path)
	ckptEvery  int    // engine checkpoint every this many transactions; 0 never
}

func (c *cell) key(sess, k int) []byte { return []byte(fmt.Sprintf(c.keyFmt, sess*c.keys+k)) }

// val is what transaction i of session sess writes (i < 0: the preloaded
// value): "<sess>.<i>", padded. Long values span several device pages, so
// a torn write would surface as a corrupt read.
func (c *cell) val(sess, i int) []byte {
	v := make([]byte, c.valBytes)
	copy(v, fmt.Sprintf("%d.%03d", sess, i))
	for j := 8; j < len(v); j++ {
		v[j] = byte(i + j)
	}
	return v
}

// Key n of a spread transaction i is (i*spreadMul[n] + spreadAdd[n]) mod keys.
var spreadMul, spreadAdd = [3]int{1, 5, 11}, [3]int{0, 1, 3}

// puts is transaction i of session sess. A transaction covering its whole
// partition writes it in key order; a narrower one spreads over the
// partition so consecutive transactions overlap, making torn multi-key
// commits visible.
func (c *cell) puts(sess, i int) []put {
	ps := make([]put, c.perTxn)
	for n := range ps {
		k := n
		if c.perTxn < c.keys {
			k = (i*spreadMul[n] + spreadAdd[n]) % c.keys
		}
		ps[n] = put{c.key(sess, k), c.val(sess, i)}
	}
	return ps
}

// model is session sess's partition after its first n transactions.
func (c *cell) model(sess, n int) map[string]string {
	m := make(map[string]string, c.keys)
	for k := 0; k < c.keys; k++ {
		m[string(c.key(sess, k))] = string(c.val(sess, -1))
	}
	for i := 0; i < n; i++ {
		for _, p := range c.puts(sess, i) {
			m[string(p.key)] = string(p.val)
		}
	}
	return m
}

// kvStack runs a row's key/value workload against its engine.
type kvStack struct {
	c  *cell
	r  *rig
	db kv
}

// newKVStack opens the row's engine on r and preloads every session's
// partition, then checkpoints if the engine has one.
func newKVStack(c *cell, r *rig) (*kvStack, error) {
	s := &kvStack{c: c, r: r}
	if err := s.reopen(); err != nil {
		return nil, err
	}
	var all []put
	for sess := 0; sess < max(c.sessions, 1); sess++ {
		for k := 0; k < c.keys; k++ {
			all = append(all, put{c.key(sess, k), c.val(sess, -1)})
		}
	}
	chunk := len(all)
	if c.preloadTxn > 0 {
		chunk = c.preloadTxn
	}
	for len(all) > 0 {
		n := min(chunk, len(all))
		if err := s.db.update(r.task, all[:n]); err != nil {
			return nil, err
		}
		all = all[n:]
	}
	if cp, ok := s.db.(checkpointer); ok {
		return s, cp.checkpoint(r.task)
	}
	return s, nil
}

func (s *kvStack) step(t *sim.Task, sess, i int) error {
	c := s.c
	if err := s.db.update(t, c.puts(sess, i)); err != nil {
		return err
	}
	// Read a stride of keys so pool misses exercise the cache read path
	// (verify-on-read) between commits, not just the fill path.
	for k := 0; k < c.readStride; k++ {
		if _, _, err := s.db.get(t, c.key(sess, (i*7+k*13)%c.keys)); err != nil {
			return err
		}
	}
	if c.ckptEvery > 0 && (i+1)%c.ckptEvery == 0 {
		if err := s.db.(checkpointer).checkpoint(t); err != nil {
			return err
		}
	}
	if c.afterStep != nil {
		return c.afterStep(s.r)
	}
	return nil
}

func (s *kvStack) reopen() (err error) {
	s.db, err = s.c.engine.open(s.r)
	return err
}

func (s *kvStack) verify(acked, attempted []int) error {
	read := func(key string) (string, error) {
		v, ok, err := s.db.get(s.r.task, []byte(key))
		if err == nil && !ok {
			err = fmt.Errorf("missing after recovery")
		}
		return string(v), err
	}
	for sess := range acked {
		if err := checkState(read, s.c.model(sess, acked[sess]), s.c.model(sess, attempted[sess])); err != nil {
			return fmt.Errorf("session %d: %w", sess, err)
		}
	}
	return nil
}

// pgStack drives a deterministic TPC-B parameter list (seeded
// independently of the crash sampling) and checks every touched balance.
type pgStack struct {
	c      *cell
	r      *rig
	db     *pgmini.DB
	params []pgmini.TxnParams
}

func newPgStack(c *cell, r *rig) (*pgStack, error) {
	s := &pgStack{c: c, r: r}
	if err := s.reopen(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < c.txns; i++ {
		s.params = append(s.params, pgmini.TxnParams{
			Account:    rng.Intn(s.db.Accounts()),
			Teller:     rng.Intn(s.db.Tellers()),
			Branch:     rng.Intn(s.db.Branches()),
			Delta:      int64(rng.Intn(10000) - 5000),
			HistoryVal: uint64(rng.Int63()) | 1,
		})
	}
	return s, nil
}

func (s *pgStack) step(t *sim.Task, _, i int) error { return s.db.Txn(t, s.params[i]) }

func (s *pgStack) reopen() (err error) {
	s.db, err = s.c.engine.openPg(s.r)
	return err
}

// model is the balance of every row the parameter list touches, keyed
// "a<account>", "t<teller>", "b<branch>", after the first n transactions.
func (s *pgStack) model(n int) map[string]string {
	bal := make(map[string]int64)
	for i, p := range s.params {
		d := p.Delta
		if i >= n {
			d = 0 // touched only later: part of the state, at its old balance
		}
		bal[fmt.Sprint("a", p.Account)] += d
		bal[fmt.Sprint("t", p.Teller)] += d
		bal[fmt.Sprint("b", p.Branch)] += d
	}
	m := make(map[string]string, len(bal))
	for row, v := range bal {
		m[row] = fmt.Sprint(v)
	}
	return m
}

func (s *pgStack) verify(acked, attempted []int) error {
	balance := map[byte]func(*sim.Task, int) (int64, error){
		'a': s.db.Balance, 't': s.db.TellerBalance, 'b': s.db.BranchBalance,
	}
	read := func(key string) (string, error) {
		row, _ := strconv.Atoi(key[1:])
		v, err := balance[key[0]](s.r.task, row)
		return fmt.Sprint(v), err
	}
	return checkState(read, s.model(acked[0]), s.model(attempted[0]))
}
