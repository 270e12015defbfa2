package sqlmini

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"share/internal/fsim"
	"share/internal/sim"
	"share/internal/ssd"
)

func testDB(t *testing.T, mode Mode, mut func(*Config)) (*DB, *ssd.Device, *sim.Task) {
	t.Helper()
	cfg := ssd.DefaultConfig(512)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	dev, err := ssd.New("sql", cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewSoloTask("t")
	fs, err := fsim.Format(task, dev, 32)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := Config{Mode: mode}
	if mut != nil {
		mut(&dcfg)
	}
	db, err := Open(task, fs, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return db, dev, task
}

func reopen(t *testing.T, db *DB, dev *ssd.Device, task *sim.Task) *DB {
	t.Helper()
	dev.Crash()
	if err := dev.Recover(task); err != nil {
		t.Fatal(err)
	}
	fs2, err := fsim.Mount(task, dev)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(task, fs2, db.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db2
}

func allModes() []Mode { return []Mode{Rollback, WAL, Share} }

func TestBasicPutGetAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			db, _, task := testDB(t, mode, nil)
			err := db.Update(task, func(tx *Tx) error {
				for i := 0; i < 50; i++ {
					if err := tx.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				v, ok, err := db.Get(task, []byte(fmt.Sprintf("k%03d", i)))
				if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("k%03d = %q %v %v", i, v, ok, err)
				}
			}
		})
	}
}

func TestAbortDiscardsAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			db, _, task := testDB(t, mode, nil)
			if err := db.Update(task, func(tx *Tx) error {
				return tx.Put([]byte("keep"), []byte("yes"))
			}); err != nil {
				t.Fatal(err)
			}
			wantErr := fmt.Errorf("boom")
			err := db.Update(task, func(tx *Tx) error {
				if err := tx.Put([]byte("ghost"), []byte("no")); err != nil {
					return err
				}
				return wantErr
			})
			if err != wantErr {
				t.Fatalf("err = %v", err)
			}
			if _, ok, _ := db.Get(task, []byte("ghost")); ok {
				t.Fatal("aborted write visible")
			}
			if v, ok, _ := db.Get(task, []byte("keep")); !ok || string(v) != "yes" {
				t.Fatal("committed write lost after abort")
			}
		})
	}
}

func TestCommittedSurvivesCrashAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			db, dev, task := testDB(t, mode, nil)
			for round := 0; round < 10; round++ {
				round := round
				if err := db.Update(task, func(tx *Tx) error {
					for i := 0; i < 10; i++ {
						k := fmt.Sprintf("k%03d", (round*10+i)%40)
						if err := tx.Put([]byte(k), []byte(fmt.Sprintf("r%d-%d", round, i))); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			db2 := reopen(t, db, dev, task)
			// Last writers win: round 9 wrote keys (90..99)%40 = 10..19;
			// round 7 wrote 30..39.
			for i := 0; i < 10; i++ {
				k := fmt.Sprintf("k%03d", 10+i)
				v, ok, err := db2.Get(task, []byte(k))
				if err != nil || !ok {
					t.Fatalf("%s: %v %v", k, ok, err)
				}
				if string(v) != fmt.Sprintf("r9-%d", i) {
					t.Fatalf("%s = %q", k, v)
				}
				k = fmt.Sprintf("k%03d", 30+i)
				v, ok, err = db2.Get(task, []byte(k))
				if err != nil || !ok {
					t.Fatalf("%s: %v %v", k, ok, err)
				}
				if string(v) != fmt.Sprintf("r7-%d", i) {
					t.Fatalf("%s = %q", k, v)
				}
			}
		})
	}
}

func TestRollbackJournalRollsBackTornCommit(t *testing.T) {
	// Crash between journal sync and commit point: the journaled
	// before-images must restore the pre-transaction state.
	db, dev, task := testDB(t, Rollback, nil)
	if err := db.Update(task, func(tx *Tx) error {
		return tx.Put([]byte("acct"), []byte("balance=100"))
	}); err != nil {
		t.Fatal(err)
	}
	// Manually run half a commit: journal + in-place writes, then "crash"
	// before the journal truncate (the commit point).
	db.pool.BeginCollect()
	tree := newTreeForTest(db)
	if err := tree.Put(task, []byte("acct"), []byte("balance=999")); err != nil {
		t.Fatal(err)
	}
	f, err := db.pool.Get(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.renderMeta(f.Data)
	f.MarkDirty()
	f.Release()
	pages := db.pool.EndCollect()
	buf := make([]byte, db.cfg.PageSize)
	ps := int64(db.cfg.PageSize)
	if _, err := db.writeGroup(task, db.jrnl, 0, pages, func(p uint32) ([]byte, error) {
		for i := range buf {
			buf[i] = 0
		}
		if ps*int64(p) < db.file.Size() {
			db.file.ReadAt(task, buf, ps*int64(p))
		}
		stamp(buf, p)
		return buf, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.jrnl.Sync(task); err != nil {
		t.Fatal(err)
	}
	if err := db.pool.FlushAll(task); err != nil {
		t.Fatal(err)
	}
	if err := db.file.Sync(task); err != nil {
		t.Fatal(err)
	}
	// CRASH before journal truncate: hot journal remains.
	db2 := reopen(t, db, dev, task)
	if db2.Stats().RolledBack == 0 {
		t.Fatal("hot journal not rolled back")
	}
	v, ok, err := db2.Get(task, []byte("acct"))
	if err != nil || !ok {
		t.Fatalf("acct: %v %v", ok, err)
	}
	if string(v) != "balance=100" {
		t.Fatalf("torn transaction leaked: %q", v)
	}
}

func TestWALRecoversCommittedGroups(t *testing.T) {
	db, dev, task := testDB(t, WAL, func(c *Config) { c.CheckpointEvery = 10000 })
	for i := 0; i < 20; i++ {
		if err := db.Update(task, func(tx *Tx) error {
			return tx.Put([]byte(fmt.Sprintf("w%02d", i)), []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Checkpoints != 0 {
		t.Fatal("premature checkpoint; widen CheckpointEvery")
	}
	// Home file is stale for most pages; recovery must come from the WAL.
	db2 := reopen(t, db, dev, task)
	if db2.Stats().WALRecovered == 0 {
		t.Fatal("nothing replayed from WAL")
	}
	for i := 0; i < 20; i++ {
		v, ok, err := db2.Get(task, []byte(fmt.Sprintf("w%02d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("w%02d = %q %v %v", i, v, ok, err)
		}
	}
}

func TestWALCheckpointResetsLog(t *testing.T) {
	db, _, task := testDB(t, WAL, func(c *Config) { c.CheckpointEvery = 8 })
	for i := 0; i < 30; i++ {
		if err := db.Update(task, func(tx *Tx) error {
			return tx.Put([]byte(fmt.Sprintf("w%02d", i)), bytes.Repeat([]byte{byte(i)}, 40))
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints")
	}
	if st.PagesToHome == 0 {
		t.Fatal("checkpoint wrote nothing home")
	}
}

func TestShareCommitWritesOnce(t *testing.T) {
	writes := func(mode Mode) int64 {
		db, dev, task := testDB(t, mode, func(c *Config) { c.CheckpointEvery = 16 })
		dev.ResetStats()
		for i := 0; i < 60; i++ {
			if err := db.Update(task, func(tx *Tx) error {
				return tx.Put([]byte(fmt.Sprintf("k%03d", i%20)), bytes.Repeat([]byte{byte(i)}, 60))
			}); err != nil {
				t.Fatal(err)
			}
		}
		return dev.Stats().FTL.HostWrites
	}
	rb := writes(Rollback)
	wal := writes(WAL)
	sh := writes(Share)
	if sh >= wal {
		t.Fatalf("SHARE wrote %d pages, WAL wrote %d; expected fewer", sh, wal)
	}
	if sh >= rb {
		t.Fatalf("SHARE wrote %d pages, rollback wrote %d; expected far fewer", sh, rb)
	}
	if wal >= rb {
		t.Fatalf("WAL wrote %d pages, rollback wrote %d; expected fewer", wal, rb)
	}
}

func TestShareCommitIsFastest(t *testing.T) {
	elapsed := func(mode Mode) int64 {
		db, _, task := testDB(t, mode, nil)
		start := task.Now()
		for i := 0; i < 40; i++ {
			if err := db.Update(task, func(tx *Tx) error {
				return tx.Put([]byte(fmt.Sprintf("k%03d", i%15)), bytes.Repeat([]byte{byte(i)}, 60))
			}); err != nil {
				t.Fatal(err)
			}
		}
		return task.Now() - start
	}
	rb := elapsed(Rollback)
	sh := elapsed(Share)
	if sh >= rb {
		t.Fatalf("SHARE took %d, rollback took %d; journaling off should win", sh, rb)
	}
}

func TestRandomizedAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			db, dev, task := testDB(t, mode, func(c *Config) { c.CheckpointEvery = 20 })
			rng := rand.New(rand.NewSource(77))
			model := map[string][]byte{}
			for step := 0; step < 40; step++ {
				batch := map[string][]byte{}
				del := map[string]bool{}
				err := db.Update(task, func(tx *Tx) error {
					for j := 0; j < 1+rng.Intn(4); j++ {
						k := fmt.Sprintf("k%03d", rng.Intn(60))
						if rng.Intn(6) == 0 {
							if _, err := tx.Delete([]byte(k)); err != nil {
								return err
							}
							del[k] = true
							delete(batch, k)
						} else {
							v := make([]byte, 20+rng.Intn(80))
							rng.Read(v)
							if err := tx.Put([]byte(k), v); err != nil {
								return err
							}
							batch[k] = v
							delete(del, k)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range batch {
					model[k] = v
				}
				for k := range del {
					delete(model, k)
				}
				if step%13 == 12 {
					db = reopen(t, db, dev, task)
				}
			}
			db = reopen(t, db, dev, task)
			for k, v := range model {
				got, ok, err := db.Get(task, []byte(k))
				if err != nil || !ok {
					t.Fatalf("%s: %v %v", k, ok, err)
				}
				if !bytes.Equal(got, v) {
					t.Fatalf("%s mismatch", k)
				}
			}
		})
	}
}

// helpers

func newTreeForTest(db *DB) *treeHandle {
	return &treeHandle{db: db}
}

type treeHandle struct{ db *DB }

func (h *treeHandle) Put(t *sim.Task, k, v []byte) error {
	tree := btreeOpen(h.db)
	return tree.Put(t, k, v)
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

// Share mode on a fragmented file system: engine pages are two device
// pages and the stage file lives in 5-page extents, so some stage slots
// straddle an extent boundary that their home pages do not. The commit's
// remap must follow each file's own extent map.
func TestShareCommitOnFragmentedFS(t *testing.T) {
	cfg := ssd.DefaultConfig(512)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	dev, err := ssd.New("sql", cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewSoloTask("t")
	fs, err := fsim.Format(task, dev, 32)
	if err != nil {
		t.Fatal(err)
	}
	oddHoles(t, fs, task, 20, 5)
	db, err := Open(task, fs, Config{Mode: Share, PageSize: 1024, StagePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(db.stg.Extents()); n < 3 {
		t.Fatalf("stage file has %d extents; the layout recipe no longer fragments it", n)
	}
	model := make(map[string]string)
	for c := 0; c < 12; c++ {
		if err := db.Update(task, func(tx *Tx) error {
			for i := 0; i < 5; i++ {
				k := fmt.Sprintf("key%03d", (c*5+i)*37%100)
				v := fmt.Sprintf("commit%02d-%s", c, bytes.Repeat([]byte{'x'}, 60))
				if err := tx.Put([]byte(k), []byte(v)); err != nil {
					return err
				}
				model[k] = v
			}
			return nil
		}); err != nil {
			t.Fatalf("commit %d: %v", c, err)
		}
	}
	db.pool.Drop()
	for k, want := range model {
		v, ok, err := db.Get(task, []byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("%s = %q, %v, %v; want %q", k, v, ok, err, want)
		}
	}
	if err := dev.FTLForTest().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
}
