package innodb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"share/internal/fsim"
	"share/internal/nand"
	"share/internal/sim"
	"share/internal/ssd"
)

// testRig builds a small data device + fast log device + fs + engine.
type testRig struct {
	data   *ssd.Device
	logDev *ssd.Device
	fs     *fsim.FS
	eng    *Engine
	task   *sim.Task
}

func fastLogDevice(t *testing.T) *ssd.Device {
	t.Helper()
	cfg := ssd.DefaultConfig(256)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	cfg.Timing = nand.Timing{
		ReadPage: 20 * sim.Microsecond,
		Program:  50 * sim.Microsecond,
		Erase:    500 * sim.Microsecond,
		Transfer: 5 * sim.Microsecond,
	}
	cfg.FTL.PowerCapacitor = true
	dev, err := ssd.New("log", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func newRig(t *testing.T, mode FlushMode, mut func(*Config)) *testRig {
	t.Helper()
	cfg := ssd.DefaultConfig(512)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	data, err := ssd.New("data", cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewSoloTask("t")
	fs, err := fsim.Format(task, data, 32)
	if err != nil {
		t.Fatal(err)
	}
	logDev := fastLogDevice(t)
	ecfg := Config{
		PageSize:  1024,
		PoolBytes: 64 * 1024,
		FlushMode: mode,
		DWBPages:  8,
		DataBytes: 1024 * 1024,
		LogPages:  2048,
	}
	if mut != nil {
		mut(&ecfg)
	}
	eng, err := Open(task, fs, logDev, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{data: data, logDev: logDev, fs: fs, eng: eng, task: task}
}

// reopen simulates a crash of the data device and reopens the engine.
func (r *testRig) reopen(t *testing.T) {
	t.Helper()
	r.data.Crash()
	if err := r.data.Recover(r.task); err != nil {
		t.Fatal(err)
	}
	fs, err := fsim.Mount(r.task, r.data)
	if err != nil {
		t.Fatal(err)
	}
	r.fs = fs
	cfg := r.eng.cfg
	eng, err := Open(r.task, fs, r.logDev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.eng = eng
}

func put(t *testing.T, r *testRig, table, k, v string) {
	t.Helper()
	tx := r.eng.Begin(r.task)
	if err := tx.Put(r.eng.Table(table), []byte(k), []byte(v)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, r *testRig, table, k string) (string, bool) {
	t.Helper()
	tx := r.eng.Begin(r.task)
	defer tx.Rollback()
	v, ok, err := tx.Get(r.eng.Table(table), []byte(k))
	if err != nil {
		t.Fatal(err)
	}
	return string(v), ok
}

func TestBasicCRUD(t *testing.T) {
	for _, mode := range []FlushMode{DWBOn, DWBOff, Share} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode, nil)
			if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
				t.Fatal(err)
			}
			put(t, r, "kv", "alpha", "1")
			put(t, r, "kv", "beta", "2")
			if v, ok := get(t, r, "kv", "alpha"); !ok || v != "1" {
				t.Fatalf("alpha = %q %v", v, ok)
			}
			put(t, r, "kv", "alpha", "updated")
			if v, _ := get(t, r, "kv", "alpha"); v != "updated" {
				t.Fatalf("alpha = %q", v)
			}
			tx := r.eng.Begin(r.task)
			if err := tx.Delete(r.eng.Table("kv"), []byte("beta")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, ok := get(t, r, "kv", "beta"); ok {
				t.Fatal("beta survived delete")
			}
		})
	}
}

func TestReadYourWrites(t *testing.T) {
	r := newRig(t, DWBOn, nil)
	if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
		t.Fatal(err)
	}
	tx := r.eng.Begin(r.task)
	tb := r.eng.Table("kv")
	if err := tx.Put(tb, []byte("k"), []byte("mine")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tx.Get(tb, []byte("k"))
	if err != nil || !ok || string(v) != "mine" {
		t.Fatalf("read-your-write failed: %q %v %v", v, ok, err)
	}
	if err := tx.Delete(tb, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tx.Get(tb, []byte("k")); ok {
		t.Fatal("delete not visible in txn")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackDiscards(t *testing.T) {
	r := newRig(t, DWBOn, nil)
	if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
		t.Fatal(err)
	}
	tx := r.eng.Begin(r.task)
	if err := tx.Put(r.eng.Table("kv"), []byte("ghost"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if _, ok := get(t, r, "kv", "ghost"); ok {
		t.Fatal("rolled-back write visible")
	}
}

func TestCommittedDataSurvivesCrash(t *testing.T) {
	for _, mode := range []FlushMode{DWBOn, Share} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode, nil)
			if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				put(t, r, "kv", fmt.Sprintf("key%04d", i), fmt.Sprintf("val%d", i))
			}
			r.reopen(t)
			for i := 0; i < 200; i++ {
				v, ok := get(t, r, "kv", fmt.Sprintf("key%04d", i))
				if !ok || v != fmt.Sprintf("val%d", i) {
					t.Fatalf("key%04d = %q %v after crash", i, v, ok)
				}
			}
		})
	}
}

func TestCrashMidFlushRestoresFromDWB(t *testing.T) {
	// Torn home write: simulate a crash where only the first half of an
	// engine page reached the tablespace. The doublewrite copy restores it.
	r := newRig(t, DWBOn, nil)
	if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		put(t, r, "kv", fmt.Sprintf("key%04d", i), "stable")
	}
	if err := r.eng.Checkpoint(r.task); err != nil {
		t.Fatal(err)
	}
	// Tear a page at its home location. Only a page in the most recent
	// doublewrite batch can be mid-write at a crash, so pick one from the
	// DWB header: write garbage over its first device page, as an
	// interrupted multi-LPN write would leave it.
	hdr := make([]byte, r.eng.cfg.PageSize)
	if _, err := r.eng.dwb.ReadAt(r.task, hdr, 0); err != nil {
		t.Fatal(err)
	}
	tornPage := int64(leU32(hdr[20:])) // first page of the last batch
	garbage := bytes.Repeat([]byte{0xDE}, 512)
	if _, err := r.eng.file.WriteAt(r.task, garbage, tornPage*int64(r.eng.cfg.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := r.data.Flush(r.task); err != nil { // make the torn state durable
		t.Fatal(err)
	}
	r.reopen(t)
	if r.eng.Stats().TornRestored == 0 {
		t.Fatal("torn page not restored from DWB")
	}
	for i := 0; i < 50; i++ {
		if v, ok := get(t, r, "kv", fmt.Sprintf("key%04d", i)); !ok || v != "stable" {
			t.Fatalf("key%04d lost after torn write: %q %v", i, v, ok)
		}
	}
}

func TestShareModeWritesHalfThePages(t *testing.T) {
	run := func(mode FlushMode) (hostWrites int64) {
		r := newRig(t, mode, nil)
		if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
			t.Fatal(err)
		}
		r.data.ResetStats()
		val := bytes.Repeat([]byte{'v'}, 100)
		for i := 0; i < 400; i++ {
			tx := r.eng.Begin(r.task)
			if err := tx.Put(r.eng.Table("kv"), []byte(fmt.Sprintf("key%06d", i*37%1000)), val); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.eng.Checkpoint(r.task); err != nil {
			t.Fatal(err)
		}
		return r.data.Stats().FTL.HostWrites
	}
	on := run(DWBOn)
	sh := run(Share)
	off := run(DWBOff)
	if sh >= on {
		t.Fatalf("SHARE wrote %d pages, DWB-On wrote %d; expected fewer", sh, on)
	}
	// SHARE writes each page exactly once, like DWB-Off: the staged copy
	// becomes the home, and the share commands write only mapping deltas
	// inside the device. A doublewrite header per batch would show here.
	if sh != off {
		t.Fatalf("SHARE wrote %d pages, DWB-Off %d; want equal (write once)", sh, off)
	}
	// DWB-On roughly doubles the data-page traffic of DWB-Off.
	if float64(on) < float64(off)*1.5 {
		t.Fatalf("DWB-On %d not ~2x DWB-Off %d", on, off)
	}
}

func TestScanAndPrefix(t *testing.T) {
	r := newRig(t, DWBOff, nil)
	if _, err := r.eng.CreateTable(r.task, "links"); err != nil {
		t.Fatal(err)
	}
	tb := r.eng.Table("links")
	tx := r.eng.Begin(r.task)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("n1|%02d", i)
		if err := tx.Put(tb, []byte(key), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Put(tb, []byte("n2|00"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = r.eng.Begin(r.task)
	defer tx.Rollback()
	prefix := []byte("n1|")
	count := 0
	if err := tx.Scan(tb, prefix, KeyUpperBound(prefix), func(k, v []byte) bool {
		if !bytes.HasPrefix(k, prefix) {
			t.Fatalf("scan leaked key %q", k)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 30 {
		t.Fatalf("prefix scan found %d keys", count)
	}
}

func TestMultiTableTxn(t *testing.T) {
	r := newRig(t, DWBOn, nil)
	if _, err := r.eng.CreateTable(r.task, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.eng.CreateTable(r.task, "b"); err != nil {
		t.Fatal(err)
	}
	tx := r.eng.Begin(r.task)
	if err := tx.Put(r.eng.Table("a"), []byte("k"), []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(r.eng.Table("b"), []byte("k"), []byte("vb")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.reopen(t)
	if v, ok := get(t, r, "a", "k"); !ok || v != "va" {
		t.Fatalf("a.k = %q %v", v, ok)
	}
	if v, ok := get(t, r, "b", "k"); !ok || v != "vb" {
		t.Fatalf("b.k = %q %v", v, ok)
	}
}

func TestConcurrentClientsSerialize(t *testing.T) {
	// 4 clients over the virtual-time scheduler; the engine lock
	// serializes transactions deterministically.
	cfg := ssd.DefaultConfig(512)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	data, err := ssd.New("data", cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup := sim.NewSoloTask("setup")
	fs, err := fsim.Format(setup, data, 32)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(setup, fs, fastLogDevice(t), Config{
		PageSize: 1024, PoolBytes: 64 * 1024, FlushMode: Share,
		DWBPages: 8, DataBytes: 1024 * 1024, LogPages: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateTable(setup, "kv"); err != nil {
		t.Fatal(err)
	}
	s := sim.NewScheduler()
	for c := 0; c < 4; c++ {
		c := c
		s.Go(fmt.Sprintf("client%d", c), func(task *sim.Task) {
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 50; i++ {
				tx := eng.Begin(task)
				k := []byte(fmt.Sprintf("key%03d", rng.Intn(200)))
				v := []byte(fmt.Sprintf("c%d-i%d", c, i))
				if err := tx.Put(eng.Table("kv"), k, v); err != nil {
					t.Error(err)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			}
		})
	}
	end := s.Run()
	if end == 0 {
		t.Fatal("no virtual time elapsed")
	}
	if eng.Stats().Commits != 200 {
		t.Fatalf("commits = %d", eng.Stats().Commits)
	}
}

func TestUncommittedTxnInvisibleAfterCrash(t *testing.T) {
	r := newRig(t, DWBOn, nil)
	if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
		t.Fatal(err)
	}
	put(t, r, "kv", "committed", "yes")
	// Begin a txn, buffer writes, crash before Commit.
	tx := r.eng.Begin(r.task)
	if err := tx.Put(r.eng.Table("kv"), []byte("uncommitted"), []byte("no")); err != nil {
		t.Fatal(err)
	}
	r.reopen(t) // crash without commit
	if _, ok := get(t, r, "kv", "uncommitted"); ok {
		t.Fatal("uncommitted write survived crash")
	}
	if v, ok := get(t, r, "kv", "committed"); !ok || v != "yes" {
		t.Fatalf("committed write lost: %q %v", v, ok)
	}
}

func TestLargeWorkloadWithEvictionAndCheckpoints(t *testing.T) {
	r := newRig(t, Share, func(c *Config) {
		c.PoolBytes = 16 * 1024 // tiny pool: constant eviction
		c.MaxLogImages = 64     // frequent checkpoints
	})
	if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	model := map[string]string{}
	for i := 0; i < 1200; i++ {
		k := fmt.Sprintf("key%04d", rng.Intn(600))
		v := fmt.Sprintf("val%d", i)
		put(t, r, "kv", k, v)
		model[k] = v
	}
	if r.eng.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoints under MaxLogImages pressure")
	}
	for k, v := range model {
		if got, ok := get(t, r, "kv", k); !ok || got != v {
			t.Fatalf("%s = %q %v, want %q", k, got, ok, v)
		}
	}
	r.reopen(t)
	for k, v := range model {
		if got, ok := get(t, r, "kv", k); !ok || got != v {
			t.Fatalf("after crash %s = %q %v, want %q", k, got, ok, v)
		}
	}
}

func TestCrashLoopWithRandomWork(t *testing.T) {
	r := newRig(t, Share, nil)
	if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	model := map[string]string{}
	for round := 0; round < 5; round++ {
		for i := 0; i < 120; i++ {
			k := fmt.Sprintf("key%04d", rng.Intn(300))
			v := fmt.Sprintf("r%d-%d", round, i)
			put(t, r, "kv", k, v)
			model[k] = v
		}
		r.reopen(t)
		for k, v := range model {
			if got, ok := get(t, r, "kv", k); !ok || got != v {
				t.Fatalf("round %d: %s = %q %v, want %q", round, k, got, ok, v)
			}
		}
	}
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// reopenAs crashes the data device and reopens the engine under a
// (possibly different) flush mode — the mode-switch scenario behind the
// stale-DWB regression test below.
func (r *testRig) reopenAs(t *testing.T, mode FlushMode) {
	t.Helper()
	r.data.Crash()
	if err := r.data.Recover(r.task); err != nil {
		t.Fatal(err)
	}
	fs, err := fsim.Mount(r.task, r.data)
	if err != nil {
		t.Fatal(err)
	}
	r.fs = fs
	cfg := r.eng.cfg
	cfg.FlushMode = mode
	eng, err := Open(r.task, fs, r.logDev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.eng = eng
}

// TestStaleDWBIgnoredWithoutDWBOn is the regression test for a recovery
// bug: restoreFromDWB ran regardless of flush mode, so an engine running
// without a doublewrite header (DWB-Off, or SHARE, which stages headerless)
// could "restore" stale page images that an earlier DWB-On epoch left
// behind — resurrecting old data over a torn home page that redo replay
// was about to roll forward correctly.
func TestStaleDWBIgnoredWithoutDWBOn(t *testing.T) {
	for _, mode := range []FlushMode{DWBOff, Share} {
		t.Run(mode.String(), func(t *testing.T) { testStaleDWBIgnored(t, mode) })
	}
}

func testStaleDWBIgnored(t *testing.T, mode FlushMode) {
	r := newRig(t, DWBOn, nil)
	if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		put(t, r, "kv", fmt.Sprintf("key%04d", i), "old")
	}
	if err := r.eng.Checkpoint(r.task); err != nil {
		t.Fatal(err)
	}
	// Leave a small, known batch in the DWB: one more update and a second
	// checkpoint flush exactly {leaf(key0000), meta} through the DWB, so
	// the header records pages that the workload below will also dirty.
	put(t, r, "kv", "key0000", "old2")
	if err := r.eng.Checkpoint(r.task); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, r.eng.cfg.PageSize)
	if _, err := r.eng.dwb.ReadAt(r.task, hdr, 0); err != nil {
		t.Fatal(err)
	}
	if leU32(hdr[4:]) != dwbMagic {
		t.Fatal("expected a valid DWB header after a DWB-On checkpoint")
	}
	tornPage := int64(leU32(hdr[20:])) // a home page of the stale batch

	// Switch the same tablespace to the headerless pipeline and overwrite
	// everything; the new values live in the redo log, not yet at home.
	r.reopenAs(t, mode)
	for i := 0; i < 40; i++ {
		put(t, r, "kv", fmt.Sprintf("key%04d", i), "new")
	}

	// Tear a home page from the stale batch, as an interrupted home write
	// would, make the torn state durable, and crash.
	garbage := bytes.Repeat([]byte{0xDE}, 512)
	if _, err := r.eng.file.WriteAt(r.task, garbage, tornPage*int64(r.eng.cfg.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := r.data.Flush(r.task); err != nil {
		t.Fatal(err)
	}
	r.reopenAs(t, mode)

	if n := r.eng.Stats().TornRestored; n != 0 {
		t.Fatalf("TornRestored = %d in %v: recovery consulted stale DWB state", n, mode)
	}
	for i := 0; i < 40; i++ {
		if v, ok := get(t, r, "kv", fmt.Sprintf("key%04d", i)); !ok || v != "new" {
			t.Fatalf("key%04d = %q %v after %v recovery, want \"new\"", i, v, ok, mode)
		}
	}
}

// TestEngineReadOnlyDegradation drives the data device out of spare
// blocks and checks the engine's graceful degradation contract: mutating
// operations fail fast with ErrReadOnly, reads keep serving, and the
// transition is visible in the engine stats.
func TestEngineReadOnlyDegradation(t *testing.T) {
	cfg := ssd.DefaultConfig(512)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	cfg.FTL.SpareBlocks = 1
	data, err := ssd.New("data", cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewSoloTask("t")
	fs, err := fsim.Format(task, data, 32)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(task, fs, fastLogDevice(t), Config{
		PageSize: 1024, PoolBytes: 64 * 1024, FlushMode: DWBOn,
		DWBPages: 8, DataBytes: 1024 * 1024, LogPages: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &testRig{data: data, fs: fs, eng: eng, task: task}
	if _, err := eng.CreateTable(task, "kv"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		put(t, r, "kv", fmt.Sprintf("key%04d", i), "stable")
	}
	if err := eng.Checkpoint(task); err != nil {
		t.Fatal(err)
	}

	// Exhaust the single spare block: each round schedules one permanent
	// program fault, retiring one more block on the next flush.
	for round := 0; !data.ReadOnly() && round < 10; round++ {
		if err := data.SetFaultPlan(nand.NewFaultPlan(int64(round+1)).AtProgram(1, nand.FaultProgramPermanent)); err != nil {
			t.Fatal(err)
		}
		tx := eng.Begin(task)
		_ = tx.Put(eng.Table("kv"), []byte(fmt.Sprintf("wear%04d", round)), []byte("x"))
		_ = tx.Commit()          // may fail once the device degrades
		_ = eng.Checkpoint(task) // forces data-device programs
	}
	if err := data.SetFaultPlan(nil); err != nil {
		t.Fatal(err)
	}
	if !data.ReadOnly() {
		t.Fatal("data device did not degrade to read-only")
	}

	// The next mutating operations observe (or already observed) the
	// degradation and fail with the typed engine error.
	if err := eng.Checkpoint(task); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Checkpoint error = %v, want ErrReadOnly", err)
	}
	tx := eng.Begin(task)
	if err := tx.Put(eng.Table("kv"), []byte("late"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Commit error = %v, want ErrReadOnly", err)
	}
	if _, err := eng.CreateTable(task, "more"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("CreateTable error = %v, want ErrReadOnly", err)
	}
	st := eng.Stats()
	if !st.Degraded || st.ReadOnlyTransitions != 1 {
		t.Fatalf("stats: Degraded=%v ReadOnlyTransitions=%d", st.Degraded, st.ReadOnlyTransitions)
	}
	if !eng.Degraded() {
		t.Fatal("Degraded() = false after transition")
	}
	// Reads keep serving everything durably committed before degradation.
	for i := 0; i < 30; i++ {
		if v, ok := get(t, r, "kv", fmt.Sprintf("key%04d", i)); !ok || v != "stable" {
			t.Fatalf("key%04d = %q %v in read-only mode", i, v, ok)
		}
	}
}

func TestAtomicWriteModeCRUDAndCrash(t *testing.T) {
	r := newRig(t, AtomicWrite, nil)
	if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		put(t, r, "kv", fmt.Sprintf("key%04d", i), fmt.Sprintf("val%d", i))
	}
	r.reopen(t)
	for i := 0; i < 150; i++ {
		v, ok := get(t, r, "kv", fmt.Sprintf("key%04d", i))
		if !ok || v != fmt.Sprintf("val%d", i) {
			t.Fatalf("key%04d = %q %v after crash", i, v, ok)
		}
	}
	if r.data.Stats().FTL.AtomicWrites == 0 {
		t.Fatal("no atomic write commands issued")
	}
}

func TestAtomicWriteMatchesShareHostWrites(t *testing.T) {
	run := func(mode FlushMode) int64 {
		r := newRig(t, mode, nil)
		if _, err := r.eng.CreateTable(r.task, "kv"); err != nil {
			t.Fatal(err)
		}
		r.data.ResetStats()
		val := bytes.Repeat([]byte{'v'}, 100)
		for i := 0; i < 300; i++ {
			tx := r.eng.Begin(r.task)
			if err := tx.Put(r.eng.Table("kv"), []byte(fmt.Sprintf("key%06d", i*37%500)), val); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.eng.Checkpoint(r.task); err != nil {
			t.Fatal(err)
		}
		return r.data.Stats().FTL.HostWrites
	}
	share := run(Share)
	atomic := run(AtomicWrite)
	dwb := run(DWBOn)
	// Both single-write pipelines should land well under the doublewrite.
	if float64(atomic) > float64(dwb)*0.75 {
		t.Fatalf("atomic-write %d not well below DWB-On %d", atomic, dwb)
	}
	// And close to each other (atomic skips even the DWB area but pays
	// nothing extra; within 35% either way).
	lo, hi := float64(share)*0.65, float64(share)*1.35
	if float64(atomic) < lo || float64(atomic) > hi {
		t.Fatalf("atomic-write %d far from SHARE %d", atomic, share)
	}
}
