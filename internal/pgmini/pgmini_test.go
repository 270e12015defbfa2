package pgmini

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"share/internal/fsim"
	"share/internal/nand"
	"share/internal/sim"
	"share/internal/ssd"
)

func testDB(t *testing.T, mode Mode) (*DB, *sim.Task) {
	t.Helper()
	return testDBOn(t, Config{
		Scale: 1, Mode: mode, PageSize: 512, PoolBytes: 64 * 1024,
		CheckpointEvery: 500,
	}, nil)
}

// testDBOn opens cfg on fresh devices; prep, when set, runs on the empty
// file system before the database is created.
func testDBOn(t *testing.T, cfg Config, prep func(fs *fsim.FS, task *sim.Task)) (*DB, *sim.Task) {
	t.Helper()
	dcfg := ssd.DefaultConfig(512)
	dcfg.Geometry.PageSize = 512
	dcfg.Geometry.PagesPerBlock = 32
	dev, err := ssd.New("pg", dcfg)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewSoloTask("t")
	fs, err := fsim.Format(task, dev, 32)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(fs, task)
	}
	lcfg := ssd.DefaultConfig(256)
	lcfg.Geometry.PageSize = 512
	lcfg.Geometry.PagesPerBlock = 32
	lcfg.Timing = nand.Timing{
		ReadPage: 20 * sim.Microsecond, Program: 50 * sim.Microsecond,
		Erase: 500 * sim.Microsecond, Transfer: 5 * sim.Microsecond,
	}
	lcfg.FTL.PowerCapacitor = true
	logDev, err := ssd.New("pglog", lcfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(task, fs, logDev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db, task
}

func TestTxnUpdatesBalances(t *testing.T) {
	db, task := testDB(t, FPWOn)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if err := db.RunTxn(task, rng); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	st := db.Stats()
	if st.Commits != 50 {
		t.Fatalf("commits = %d", st.Commits)
	}
	// Balances changed: at least one account is nonzero.
	rng2 := rand.New(rand.NewSource(1))
	aid := rng2.Intn(db.Accounts())
	v, err := db.Balance(task, aid)
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Log("first touched account balance is zero (possible but unlikely)")
	}
}

func TestFPWLogsImagesOnFirstTouchOnly(t *testing.T) {
	db, task := testDB(t, FPWOn)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if err := db.RunTxn(task, rng); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.FullImages == 0 {
		t.Fatal("FPW on logged no images")
	}
	// Far fewer images than updates: hot pages are logged once per ckpt.
	if st.FullImages >= st.WALRecords/2 {
		t.Fatalf("images %d vs records %d: first-touch not working", st.FullImages, st.WALRecords)
	}
}

func TestFPWOffWritesLessWAL(t *testing.T) {
	run := func(mode Mode) int64 {
		db, task := testDB(t, mode)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			if err := db.RunTxn(task, rng); err != nil {
				t.Fatal(err)
			}
		}
		return db.WALBytes()
	}
	on := run(FPWOn)
	off := run(FPWOff)
	if off >= on {
		t.Fatalf("FPW off WAL bytes %d >= on %d", off, on)
	}
	if float64(on) < 2*float64(off) {
		t.Fatalf("FPW on should write >2x the WAL: on=%d off=%d", on, off)
	}
}

func TestFPWOffIsFaster(t *testing.T) {
	run := func(mode Mode) int64 {
		db, task := testDB(t, mode)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			if err := db.RunTxn(task, rng); err != nil {
				t.Fatal(err)
			}
		}
		return task.Now()
	}
	on := run(FPWOn)
	off := run(FPWOff)
	if off >= on {
		t.Fatalf("FPW off took %d, on took %d; off should be faster", off, on)
	}
}

func TestShareModeRuns(t *testing.T) {
	db, task := testDB(t, FPWShare)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 600; i++ { // crosses a checkpoint
		if err := db.RunTxn(task, rng); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	st := db.Stats()
	if st.FullImages != 0 {
		t.Fatalf("SHARE mode logged %d full images", st.FullImages)
	}
	if st.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d", st.Checkpoints)
	}
}

func TestBalanceConservation(t *testing.T) {
	// Every txn adds delta to exactly one account/teller/branch; the sum
	// of all branch balances must equal the sum of account balances.
	db, task := testDB(t, FPWOff)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if err := db.RunTxn(task, rng); err != nil {
			t.Fatal(err)
		}
	}
	var accSum, brSum int64
	for i := 0; i < db.accounts; i++ {
		v, err := db.readBalance(task, db.accountsAt, i)
		if err != nil {
			t.Fatal(err)
		}
		accSum += v
	}
	for i := 0; i < db.branches; i++ {
		v, err := db.readBalance(task, db.branchesAt, i)
		if err != nil {
			t.Fatal(err)
		}
		brSum += v
	}
	if accSum != brSum {
		t.Fatalf("conservation violated: accounts %d, branches %d", accSum, brSum)
	}
}

func reopenPg(t *testing.T, db *DB, mode Mode) (*DB, *sim.Task) {
	t.Helper()
	dev := db.fs.Device()
	task := sim.NewSoloTask("reopen")
	dev.Crash()
	if err := dev.Recover(task); err != nil {
		t.Fatal(err)
	}
	fs2, err := fsim.Mount(task, dev)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(task, fs2, db.LogDevice(), db.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db2, task
}

func TestRecoveryPreservesConservation(t *testing.T) {
	for _, mode := range []Mode{FPWOn, FPWShare} {
		t.Run(mode.String(), func(t *testing.T) {
			db, task := testDB(t, mode)
			rng := rand.New(rand.NewSource(31))
			for i := 0; i < 150; i++ {
				if err := db.RunTxn(task, rng); err != nil {
					t.Fatal(err)
				}
			}
			db2, task2 := reopenPg(t, db, mode)
			var accSum, brSum int64
			for i := 0; i < db2.accounts; i++ {
				v, err := db2.readBalance(task2, db2.accountsAt, i)
				if err != nil {
					t.Fatal(err)
				}
				accSum += v
			}
			for i := 0; i < db2.branches; i++ {
				v, err := db2.readBalance(task2, db2.branchesAt, i)
				if err != nil {
					t.Fatal(err)
				}
				brSum += v
			}
			if accSum != brSum {
				t.Fatalf("conservation violated after crash: accounts %d, branches %d", accSum, brSum)
			}
			// The database keeps working after recovery.
			for i := 0; i < 20; i++ {
				if err := db2.RunTxn(task2, rng); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWALReadFaultTruncatesReplay injects an unrecoverable read fault on
// a WAL page and checks the satellite contract: replay stops at the first
// unreadable record (no panic, no error), the truncation is visible in
// Stats, and the replayed prefix is still transactionally consistent.
func TestWALReadFaultTruncatesReplay(t *testing.T) {
	db, task := testDB(t, FPWOn)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		if err := db.RunTxn(task, rng); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(task); err != nil {
		t.Fatal(err)
	}
	// Work past the checkpoint, little enough that no background flush
	// runs: the heap holds exactly the checkpoint state and these
	// transactions live only in the WAL.
	for i := 0; i < 25; i++ {
		if err := db.RunTxn(task, rng); err != nil {
			t.Fatal(err)
		}
	}
	before := db.historyRows
	// Three consecutive scheduled faults on the log chip defeat the FTL's
	// read-retry budget, making one early WAL page unrecoverable.
	plan := nand.NewFaultPlan(99)
	for a := int64(4); a <= 6; a++ {
		plan.AtRead(a, nand.FaultReadUncorrectable)
	}
	if err := db.LogDevice().SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	db2, task2 := reopenPg(t, db, FPWOn)
	if err := db2.LogDevice().SetFaultPlan(nil); err != nil {
		t.Fatal(err)
	}
	st := db2.Stats()
	if st.WALReadTruncations == 0 {
		t.Fatal("WAL read truncation not reported in stats")
	}
	if db2.historyRows >= before {
		t.Fatalf("historyRows = %d, want < %d: replay was not truncated", db2.historyRows, before)
	}
	if db2.historyRows < 40 {
		t.Fatalf("historyRows = %d, want >= 40: checkpointed transactions lost", db2.historyRows)
	}
	// The surviving prefix is whole transactions: conservation holds.
	var accSum, telSum, brSum int64
	for i := 0; i < db2.accounts; i++ {
		v, err := db2.readBalance(task2, db2.accountsAt, i)
		if err != nil {
			t.Fatal(err)
		}
		accSum += v
	}
	for i := 0; i < db2.tellers; i++ {
		v, err := db2.readBalance(task2, db2.tellersAt, i)
		if err != nil {
			t.Fatal(err)
		}
		telSum += v
	}
	for i := 0; i < db2.branches; i++ {
		v, err := db2.readBalance(task2, db2.branchesAt, i)
		if err != nil {
			t.Fatal(err)
		}
		brSum += v
	}
	if accSum != brSum || accSum != telSum {
		t.Fatalf("conservation violated after truncated replay: acc=%d tel=%d br=%d", accSum, telSum, brSum)
	}
	// The database keeps working after the lossy recovery.
	for i := 0; i < 10; i++ {
		if err := db2.RunTxn(task2, rng); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPgReadOnlyDegradation exhausts the data device's spare blocks and
// checks graceful degradation: transactions fail fast with ErrReadOnly,
// balance reads keep serving, and the transition shows up in Stats.
func TestPgReadOnlyDegradation(t *testing.T) {
	cfg := ssd.DefaultConfig(512)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	cfg.FTL.SpareBlocks = 1
	dev, err := ssd.New("pg", cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewSoloTask("t")
	fs, err := fsim.Format(task, dev, 32)
	if err != nil {
		t.Fatal(err)
	}
	lcfg := ssd.DefaultConfig(256)
	lcfg.Geometry.PageSize = 512
	lcfg.Geometry.PagesPerBlock = 32
	lcfg.FTL.PowerCapacitor = true
	logDev, err := ssd.New("pglog", lcfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(task, fs, logDev, Config{
		Scale: 1, Mode: FPWOff, PageSize: 512, PoolBytes: 64 * 1024,
		CheckpointEvery: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 30; i++ {
		if err := db.RunTxn(task, rng); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(task); err != nil {
		t.Fatal(err)
	}
	wantBalance := make([]int64, db.accounts)
	for i := range wantBalance {
		v, err := db.readBalance(task, db.accountsAt, i)
		if err != nil {
			t.Fatal(err)
		}
		wantBalance[i] = v
	}
	// Exhaust the single spare block. Redirtying an unchanged page keeps
	// the balances stable while forcing data-device programs, so each
	// round's permanent fault retires one more block.
	for round := 0; !dev.ReadOnly() && round < 10; round++ {
		if err := dev.SetFaultPlan(nand.NewFaultPlan(int64(round+1)).AtProgram(1, nand.FaultProgramPermanent)); err != nil {
			t.Fatal(err)
		}
		f, err := db.pool.Get(task, uint32(round%4))
		if err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()
		f.Release()
		_ = db.Checkpoint(task)
	}
	if err := dev.SetFaultPlan(nil); err != nil {
		t.Fatal(err)
	}
	if !dev.ReadOnly() {
		t.Fatal("data device did not degrade to read-only")
	}
	if err := db.Checkpoint(task); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Checkpoint error = %v, want ErrReadOnly", err)
	}
	if err := db.RunTxn(task, rng); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("RunTxn error = %v, want ErrReadOnly", err)
	}
	st := db.Stats()
	if !st.Degraded || st.ReadOnlyTransitions != 1 {
		t.Fatalf("stats: Degraded=%v ReadOnlyTransitions=%d", st.Degraded, st.ReadOnlyTransitions)
	}
	if !db.Degraded() {
		t.Fatal("Degraded() = false after transition")
	}
	// Reads keep serving the state durable before degradation.
	for i := range wantBalance {
		v, err := db.Balance(task, i)
		if err != nil {
			t.Fatal(err)
		}
		if v != wantBalance[i] {
			t.Fatalf("account %d = %d in read-only mode, want %d", i, v, wantBalance[i])
		}
	}
}

func TestRecoveryReplaysCommittedDeltas(t *testing.T) {
	db, task := testDB(t, FPWOn)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 60; i++ {
		if err := db.RunTxn(task, rng); err != nil {
			t.Fatal(err)
		}
	}
	// Record every account balance (from the pool: the newest state).
	want := make([]int64, db.accounts)
	for i := range want {
		v, err := db.readBalance(task, db.accountsAt, i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	db2, task2 := reopenPg(t, db, FPWOn)
	for i := range want {
		v, err := db2.readBalance(task2, db2.accountsAt, i)
		if err != nil {
			t.Fatal(err)
		}
		if v != want[i] {
			t.Fatalf("account %d = %d after crash, want %d", i, v, want[i])
		}
	}
	if db2.historyRows == 0 {
		t.Fatal("history rows not recovered")
	}
}

// oddHoles leaves fs with n free holePages-page holes and nothing else:
// hole files and 4-page files alternate, the hole files are removed and
// the free tail is filled. With holePages odd, files allocated afterwards
// have extent boundaries inside two-device-page engine pages.
func oddHoles(t *testing.T, fs *fsim.FS, task *sim.Task, n, holePages int) {
	t.Helper()
	ps := int64(fs.Device().PageSize())
	alloc := func(name string, pages int) {
		f, err := fs.Create(task, name)
		if err == nil {
			err = f.Allocate(task, 0, int64(pages)*ps)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		alloc(fmt.Sprintf("hole%d", i), holePages)
		alloc(fmt.Sprintf("keep%d", i), 4)
	}
	for i := 0; i < n; i++ {
		if err := fs.Remove(task, fmt.Sprintf("hole%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.SyncMeta(task); err != nil {
		t.Fatal(err)
	}
	alloc("tail", fs.FreePages()-n*holePages)
}

// FPWShare on a fragmented file system: engine pages are two device pages
// and both the heap and the stage file live in 45-page extents (the
// smallest odd holes the 24-extent inode can build a scale-1 heap from),
// so heap pages and stage slots straddle extent boundaries at different
// places. The checkpoint remap must follow each file's own extent map.
func TestFPWShareOnFragmentedFS(t *testing.T) {
	db, task := testDBOn(t, Config{
		Scale: 1, Mode: FPWShare, PageSize: 1024, PoolBytes: 64 * 1024,
		CheckpointEvery: 50,
	}, func(fs *fsim.FS, task *sim.Task) { oddHoles(t, fs, task, 27, 45) })
	if h, s := len(db.file.Extents()), len(db.scratch.Extents()); h < 20 || s < 3 {
		t.Fatalf("heap has %d extents, stage %d; the layout recipe no longer fragments them", h, s)
	}
	accounts := make(map[int]int64)
	tellers := make(map[int]int64)
	branches := make(map[int]int64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		p := TxnParams{
			Account: rng.Intn(db.Accounts()), Teller: rng.Intn(db.Tellers()), Branch: rng.Intn(db.Branches()),
			Delta: int64(rng.Intn(10000) - 5000), HistoryVal: uint64(i + 1),
		}
		if err := db.Txn(task, p); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		accounts[p.Account] += p.Delta
		tellers[p.Teller] += p.Delta
		branches[p.Branch] += p.Delta
	}
	if err := db.Checkpoint(task); err != nil {
		t.Fatal(err)
	}
	db.pool.Drop()
	check := func(what string, n int, want map[int]int64, read func(*sim.Task, int) (int64, error)) {
		for row := 0; row < n; row++ {
			got, err := read(task, row)
			if err != nil || got != want[row] {
				t.Fatalf("%s %d = %d, %v; want %d", what, row, got, err, want[row])
			}
		}
	}
	check("account", db.Accounts(), accounts, db.Balance)
	check("teller", db.Tellers(), tellers, db.TellerBalance)
	check("branch", db.Branches(), branches, db.BranchBalance)
	if err := db.fs.Device().FTLForTest().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := db.fs.Fsck(); err != nil {
		t.Fatal(err)
	}
}
