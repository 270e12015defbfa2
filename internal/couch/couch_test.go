package couch

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

func testStore(t *testing.T, blocks int, mut func(*Config)) (*Store, *ssd.Device, *sim.Task) {
	t.Helper()
	cfg := ssd.DefaultConfig(blocks)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	dev, err := ssd.New("couch", cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewSoloTask("t")
	fs, err := fsim.Format(task, dev, 32)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := Config{BatchSize: 1}
	if mut != nil {
		mut(&ccfg)
	}
	st, err := Open(task, fs, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, dev, task
}

func val(i, size int) []byte {
	v := bytes.Repeat([]byte{byte('a' + i%26)}, size)
	copy(v, fmt.Sprintf("v%06d|", i))
	return v
}

func TestSetGetRoundTrip(t *testing.T) {
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share=%v", share), func(t *testing.T) {
			s, _, task := testStore(t, 256, func(c *Config) { c.ShareMode = share })
			for i := 0; i < 100; i++ {
				if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i)), val(i, 300)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				v, ok, err := s.Get(task, []byte(fmt.Sprintf("user%04d", i)))
				if err != nil || !ok {
					t.Fatalf("get %d: %v %v", i, ok, err)
				}
				if !bytes.Equal(v, val(i, 300)) {
					t.Fatalf("doc %d mismatch", i)
				}
			}
			if s.DocCount() != 100 {
				t.Fatalf("docs = %d", s.DocCount())
			}
			if _, ok, _ := s.Get(task, []byte("missing")); ok {
				t.Fatal("phantom doc")
			}
		})
	}
}

func TestUpdatesVisible(t *testing.T) {
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share=%v", share), func(t *testing.T) {
			s, _, task := testStore(t, 256, func(c *Config) { c.ShareMode = share; c.DocCacheEntries = 0 })
			key := []byte("doc1")
			for i := 0; i < 20; i++ {
				if err := s.Set(task, key, val(i, 400)); err != nil {
					t.Fatal(err)
				}
				v, ok, err := s.Get(task, key)
				if err != nil || !ok || !bytes.Equal(v, val(i, 400)) {
					t.Fatalf("iter %d: get mismatch (%v %v)", i, ok, err)
				}
			}
			if s.DocCount() != 1 {
				t.Fatalf("docs = %d", s.DocCount())
			}
		})
	}
}

// A Get or Scan inside an open batch returns the batch's own last Set of the
// key, with no doc cache to paper over it: in SHARE mode the index still
// points at the old location until commit, so the read must follow the
// pending remap — the newest one when the key was set twice. Snapshot readers keep seeing
// the committed version.
func TestGetSeesOpenBatch(t *testing.T) {
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share=%v", share), func(t *testing.T) {
			s, _, task := testStore(t, 256, func(c *Config) {
				c.ShareMode = share
				c.BatchSize = 8
				c.DocCacheEntries = 0
			})
			key := []byte("doc1")
			expect := func(what string, i int) {
				t.Helper()
				v, ok, err := s.Get(task, key)
				if err != nil || !ok || !bytes.Equal(v, val(i, 400)) {
					t.Fatalf("%s: got %.8q (%v %v), want version %d", what, v, ok, err, i)
				}
				if err := s.Scan(task, key, nil, func(_, v []byte) bool {
					if !bytes.Equal(v, val(i, 400)) {
						t.Fatalf("%s: scan got %.8q, want version %d", what, v, i)
					}
					return false
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Set(task, key, val(1, 400)); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(task); err != nil {
				t.Fatal(err)
			}
			for i := 2; i <= 3; i++ {
				if err := s.Set(task, key, val(i, 400)); err != nil {
					t.Fatal(err)
				}
				expect("inside the open batch", i)
			}
			if v, ok, err := s.Snapshot(task).Get(task, key); err != nil || !ok || !bytes.Equal(v, val(1, 400)) {
				t.Fatalf("snapshot mid-batch: got %.8q (%v %v), want the committed version 1", v, ok, err)
			}
			if err := s.Commit(task); err != nil {
				t.Fatal(err)
			}
			expect("after commit", 3)
		})
	}
}

func TestShareModeAvoidsTreeWrites(t *testing.T) {
	load := func(share bool) (nodePages int64, docPages int64) {
		s, _, task := testStore(t, 512, func(c *Config) {
			c.ShareMode = share
			c.BatchSize = 1
			c.DocCacheEntries = 0
		})
		// Load 200 docs (inserts go through the tree in both modes).
		for i := 0; i < 200; i++ {
			if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i)), val(i, 900)); err != nil {
				t.Fatal(err)
			}
		}
		base := s.Stats()
		// Update phase: this is where the modes diverge.
		for i := 0; i < 200; i++ {
			if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i*7%200)), val(i+1000, 900)); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		return st.NodePagesWritten - base.NodePagesWritten, st.DocPagesWritten - base.DocPagesWritten
	}
	origNodes, origDocs := load(false)
	shareNodes, shareDocs := load(true)
	if origNodes == 0 {
		t.Fatal("original mode wrote no index nodes")
	}
	if shareNodes != 0 {
		t.Fatalf("share mode wrote %d node pages during updates; want 0", shareNodes)
	}
	if origDocs != shareDocs {
		t.Fatalf("doc writes differ: %d vs %d", origDocs, shareDocs)
	}
}

func TestBatchSizeReducesOriginalWrites(t *testing.T) {
	run := func(batch int) int64 {
		s, dev, task := testStore(t, 512, func(c *Config) {
			c.BatchSize = batch
			c.DocCacheEntries = 0
		})
		for i := 0; i < 100; i++ {
			if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i)), val(i, 900)); err != nil {
				t.Fatal(err)
			}
		}
		dev.ResetStats()
		for i := 0; i < 200; i++ {
			if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i%100)), val(i, 900)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(task); err != nil {
			t.Fatal(err)
		}
		return dev.Stats().FTL.HostWrites
	}
	small := run(1)
	big := run(32)
	if big >= small {
		t.Fatalf("batch 32 wrote %d pages, batch 1 wrote %d; batching should amortize tree writes", big, small)
	}
}

func TestCommittedDataSurvivesCrash(t *testing.T) {
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share=%v", share), func(t *testing.T) {
			s, dev, task := testStore(t, 512, func(c *Config) {
				c.ShareMode = share
				c.BatchSize = 4
			})
			for i := 0; i < 60; i++ {
				if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i%20)), val(i, 700)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Commit(task); err != nil {
				t.Fatal(err)
			}
			dev.Crash()
			if err := dev.Recover(task); err != nil {
				t.Fatal(err)
			}
			fs2, err := fsim.Mount(task, dev)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := Open(task, fs2, Config{ShareMode: share, BatchSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 20; k++ {
				// Last write to each key: find the largest i with i%20==k.
				last := 40 + k
				v, ok, err := s2.Get(task, []byte(fmt.Sprintf("user%04d", k)))
				if err != nil || !ok {
					t.Fatalf("key %d lost: %v %v", k, ok, err)
				}
				if !bytes.Equal(v, val(last, 700)) {
					t.Fatalf("key %d stale content", k)
				}
			}
		})
	}
}

func TestUncommittedBatchLostOnCrash(t *testing.T) {
	s, dev, task := testStore(t, 512, func(c *Config) { c.BatchSize = 100 })
	if err := s.Set(task, []byte("committed"), val(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(task); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(task, []byte("uncommitted"), val(2, 100)); err != nil {
		t.Fatal(err)
	}
	// No commit: crash.
	dev.Crash()
	if err := dev.Recover(task); err != nil {
		t.Fatal(err)
	}
	fs2, err := fsim.Mount(task, dev)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(task, fs2, Config{BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Get(task, []byte("committed")); !ok {
		t.Fatal("committed doc lost")
	}
	if _, ok, _ := s2.Get(task, []byte("uncommitted")); ok {
		t.Fatal("uncommitted doc visible after crash")
	}
}

func TestStaleRatioGrowsSlowerWithShare(t *testing.T) {
	grow := func(share bool) float64 {
		s, _, task := testStore(t, 512, func(c *Config) {
			c.ShareMode = share
			c.DocCacheEntries = 0
		})
		for i := 0; i < 100; i++ {
			if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i)), val(i, 900)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i%100)), val(i, 900)); err != nil {
				t.Fatal(err)
			}
		}
		return s.StaleRatio()
	}
	orig := grow(false)
	shared := grow(true)
	if shared >= orig {
		t.Fatalf("stale ratio with SHARE (%.2f) not below original (%.2f)", shared, orig)
	}
}

func TestCompactionOriginal(t *testing.T) {
	s, _, task := testStore(t, 1024, func(c *Config) { c.DocCacheEntries = 0 })
	for i := 0; i < 80; i++ {
		if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i)), val(i, 900)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 240; i++ {
		if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i%80)), val(i+500, 900)); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := s.FileSize()
	cs, err := s.Compact(task)
	if err != nil {
		t.Fatal(err)
	}
	if cs.DocsMoved != 80 {
		t.Fatalf("moved %d docs", cs.DocsMoved)
	}
	if s.FileSize() >= sizeBefore {
		t.Fatalf("compaction did not shrink file: %d -> %d", sizeBefore, s.FileSize())
	}
	if s.StaleRatio() != 0 {
		t.Fatalf("stale ratio after compaction = %f", s.StaleRatio())
	}
	for i := 0; i < 80; i++ {
		want := val(160+i+500, 900) // last writer of key i: i+160 in update loop
		_ = want
		v, ok, err := s.Get(task, []byte(fmt.Sprintf("user%04d", i)))
		if err != nil || !ok {
			t.Fatalf("key %d lost after compaction: %v %v", i, ok, err)
		}
		if len(v) != 900 {
			t.Fatalf("key %d truncated", i)
		}
	}
}

func TestCompactionShareZeroCopy(t *testing.T) {
	s, dev, task := testStore(t, 1024, func(c *Config) {
		c.ShareMode = true
		c.DocCacheEntries = 0
	})
	for i := 0; i < 80; i++ {
		if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i)), val(i, 900)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 240; i++ {
		if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i%80)), val(i+500, 900)); err != nil {
			t.Fatal(err)
		}
	}
	before := dev.Stats()
	cs, err := s.Compact(task)
	if err != nil {
		t.Fatal(err)
	}
	after := dev.Stats()
	dataWrites := after.FTL.HostWrites - before.FTL.HostWrites
	// Only index nodes, headers and fs metadata may be written — far less
	// than the ~160 doc pages that a copy would need.
	if dataWrites > 60 {
		t.Fatalf("share compaction wrote %d pages; expected only index/meta", dataWrites)
	}
	if cs.SharePairs != 80 {
		t.Fatalf("share pairs = %d", cs.SharePairs)
	}
	for i := 0; i < 80; i++ {
		v, ok, err := s.Get(task, []byte(fmt.Sprintf("user%04d", i)))
		if err != nil || !ok || len(v) != 900 {
			t.Fatalf("key %d bad after share compaction: %v %v", i, ok, err)
		}
	}
}

func TestCompactionPreservesAcrossCrash(t *testing.T) {
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share=%v", share), func(t *testing.T) {
			s, dev, task := testStore(t, 1024, func(c *Config) { c.ShareMode = share })
			for i := 0; i < 50; i++ {
				if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i)), val(i, 600)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i%50)), val(i+99, 600)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Compact(task); err != nil {
				t.Fatal(err)
			}
			dev.Crash()
			if err := dev.Recover(task); err != nil {
				t.Fatal(err)
			}
			fs2, err := fsim.Mount(task, dev)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := Open(task, fs2, Config{ShareMode: share})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				v, ok, err := s2.Get(task, []byte(fmt.Sprintf("user%04d", i)))
				if err != nil || !ok {
					t.Fatalf("key %d lost: %v %v", i, ok, err)
				}
				if !bytes.Equal(v, val(50+i+99, 600)) {
					t.Fatalf("key %d content wrong after compaction+crash", i)
				}
			}
		})
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share=%v", share), func(t *testing.T) {
			s, _, task := testStore(t, 1024, func(c *Config) {
				c.ShareMode = share
				c.BatchSize = 3
				c.DocCacheEntries = 8
			})
			rng := rand.New(rand.NewSource(21))
			model := map[string][]byte{}
			for step := 0; step < 600; step++ {
				k := fmt.Sprintf("user%03d", rng.Intn(80))
				switch rng.Intn(10) {
				case 0:
					if _, err := s.Delete(task, []byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				case 1:
					if s.NeedsCompaction() {
						if _, err := s.Compact(task); err != nil {
							t.Fatal(err)
						}
					}
				default:
					v := val(step, 200+rng.Intn(500))
					if err := s.Set(task, []byte(k), v); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				}
			}
			if err := s.Commit(task); err != nil {
				t.Fatal(err)
			}
			for k, v := range model {
				got, ok, err := s.Get(task, []byte(k))
				if err != nil || !ok {
					t.Fatalf("key %s: %v %v", k, ok, err)
				}
				if !bytes.Equal(got, v) {
					t.Fatalf("key %s mismatch", k)
				}
			}
			if int64(len(model)) != s.DocCount() {
				t.Fatalf("doc count %d, model %d", s.DocCount(), len(model))
			}
		})
	}
}

func TestTreeDepthGrows(t *testing.T) {
	s, _, task := testStore(t, 2048, func(c *Config) { c.BatchSize = 64 })
	for i := 0; i < 3000; i++ {
		if err := s.Set(task, []byte(fmt.Sprintf("user%08d", i)), val(i, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(task); err != nil {
		t.Fatal(err)
	}
	h, err := s.Height(task)
	if err != nil {
		t.Fatal(err)
	}
	if h < 3 {
		t.Fatalf("height = %d; want a real tree", h)
	}
}

func TestCrashMidCompactionRestarts(t *testing.T) {
	// §4.3: "Upon crashing during this compaction, the partially compacted
	// new file is deleted and the whole compaction process restarts."
	// Simulate the crash by leaving a partial .compact file behind, then
	// reopening and compacting again.
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share=%v", share), func(t *testing.T) {
			s, dev, task := testStore(t, 1024, func(c *Config) { c.ShareMode = share })
			for i := 0; i < 60; i++ {
				if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i)), val(i, 700)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 120; i++ {
				if err := s.Set(task, []byte(fmt.Sprintf("user%04d", i%60)), val(i+200, 700)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Commit(task); err != nil {
				t.Fatal(err)
			}
			// Fake a crashed compaction: a partial new file exists.
			partial, err := s.fs.Create(task, s.cfg.Name+".compact")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := partial.WriteAt(task, make([]byte, 5*512), 0); err != nil {
				t.Fatal(err)
			}
			if err := s.fs.SyncMeta(task); err != nil {
				t.Fatal(err)
			}
			dev.Crash()
			if err := dev.Recover(task); err != nil {
				t.Fatal(err)
			}
			fs2, err := fsim.Mount(task, dev)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := Open(task, fs2, Config{ShareMode: share})
			if err != nil {
				t.Fatal(err)
			}
			// The restarted compaction must discard the partial file and
			// complete correctly.
			cs, err := s2.Compact(task)
			if err != nil {
				t.Fatal(err)
			}
			if cs.DocsMoved != 60 {
				t.Fatalf("moved %d docs", cs.DocsMoved)
			}
			if fs2.Exists(s2.cfg.Name + ".compact") {
				t.Fatal("partial compaction file left behind")
			}
			for i := 0; i < 60; i++ {
				v, ok, err := s2.Get(task, []byte(fmt.Sprintf("user%04d", i)))
				if err != nil || !ok {
					t.Fatalf("key %d lost: %v %v", i, ok, err)
				}
				if !bytes.Equal(v, val(60+i+200, 700)) {
					t.Fatalf("key %d content wrong after restart", i)
				}
			}
		})
	}
}

// TestCompactionCrashAtEveryBoundary power-cuts a compaction after every
// program/erase the device performs (a seeded sample in short mode) and
// checks that the reopened store always serves the full committed
// document set — the recovered tree is the pre-compaction one, the
// post-compaction one, or a restartable intermediate, but never loses or
// corrupts a document.
func TestCompactionCrashAtEveryBoundary(t *testing.T) {
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share=%v", share), func(t *testing.T) {
			build := func() (*Store, *ssd.Device, *sim.Task, map[string][]byte) {
				s, dev, task := testStore(t, 1024, func(c *Config) {
					c.ShareMode = share
					c.DocCacheEntries = 0
				})
				docs := map[string][]byte{}
				for i := 0; i < 40; i++ {
					k := fmt.Sprintf("user%04d", i)
					v := val(i, 600)
					if err := s.Set(task, []byte(k), v); err != nil {
						t.Fatal(err)
					}
					docs[k] = v
				}
				for i := 0; i < 80; i++ {
					k := fmt.Sprintf("user%04d", i%40)
					v := val(i+300, 600)
					if err := s.Set(task, []byte(k), v); err != nil {
						t.Fatal(err)
					}
					docs[k] = v
				}
				if err := s.Commit(task); err != nil {
					t.Fatal(err)
				}
				return s, dev, task, docs
			}

			// Measure the boundary space with an uninterrupted run.
			s0, dev0, task0, _ := build()
			opsBefore := dev0.MutatingOps()
			if _, err := s0.Compact(task0); err != nil {
				t.Fatal(err)
			}
			total := int(dev0.MutatingOps() - opsBefore)
			if total == 0 {
				t.Fatal("compaction performed no device mutations")
			}

			step := 1
			if testing.Short() {
				step = total/16 + 1
			}
			for cut := 1; cut <= total; cut += step {
				s, dev, task, docs := build()
				dev.PowerCutAfter(int64(cut))
				_, cErr := s.Compact(task)
				dev.DisablePowerCut()
				dev.Crash()
				if err := dev.Recover(task); err != nil {
					t.Fatalf("cut %d/%d: device recovery: %v", cut, total, err)
				}
				fs2, err := fsim.Mount(task, dev)
				if err != nil {
					t.Fatalf("cut %d/%d: mount: %v", cut, total, err)
				}
				if err := fs2.Fsck(); err != nil {
					t.Fatalf("cut %d/%d: fsck: %v", cut, total, err)
				}
				s2, err := Open(task, fs2, Config{ShareMode: share, DocCacheEntries: 0})
				if err != nil {
					t.Fatalf("cut %d/%d (compact err %v): reopen: %v", cut, total, cErr, err)
				}
				if got := s2.DocCount(); got != int64(len(docs)) {
					t.Fatalf("cut %d/%d: doc count %d, want %d", cut, total, got, len(docs))
				}
				for k, v := range docs {
					got, ok, err := s2.Get(task, []byte(k))
					if err != nil || !ok {
						t.Fatalf("cut %d/%d: doc %s lost: %v %v", cut, total, k, ok, err)
					}
					if !bytes.Equal(got, v) {
						t.Fatalf("cut %d/%d: doc %s corrupted", cut, total, k)
					}
				}
				// A restarted compaction completes from any recovered state.
				if cut == 1 || cut == total {
					if cs, err := s2.Compact(task); err != nil {
						t.Fatalf("cut %d/%d: restarted compaction: %v", cut, total, err)
					} else if cs.DocsMoved != int64(len(docs)) {
						t.Fatalf("cut %d/%d: restarted compaction moved %d docs", cut, total, cs.DocsMoved)
					}
				}
			}
		})
	}
}

// TestCouchReadOnlyDegradation exhausts the device's spare blocks and
// checks graceful degradation: Set/Delete/Commit/Compact fail fast with
// ErrReadOnly while Get and Scan keep serving committed documents.
func TestCouchReadOnlyDegradation(t *testing.T) {
	cfg := ssd.DefaultConfig(1024)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	cfg.FTL.SpareBlocks = 1
	dev, err := ssd.New("couch", cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := sim.NewSoloTask("t")
	fs, err := fsim.Format(task, dev, 32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(task, fs, Config{BatchSize: 1, DocCacheEntries: 0})
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]byte{}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("user%04d", i)
		v := val(i, 600)
		if err := s.Set(task, []byte(k), v); err != nil {
			t.Fatal(err)
		}
		docs[k] = v
	}
	if err := s.Commit(task); err != nil {
		t.Fatal(err)
	}
	for round := 0; !dev.ReadOnly() && round < 10; round++ {
		if err := dev.SetFaultPlan(nand.NewFaultPlan(int64(round+1)).AtProgram(1, nand.FaultProgramPermanent)); err != nil {
			t.Fatal(err)
		}
		_ = s.Set(task, []byte("wear"), val(round, 600))
	}
	if err := dev.SetFaultPlan(nil); err != nil {
		t.Fatal(err)
	}
	if !dev.ReadOnly() {
		t.Fatal("device did not degrade to read-only")
	}
	if err := s.Set(task, []byte("late"), val(1, 100)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Set error = %v, want ErrReadOnly", err)
	}
	if _, err := s.Delete(task, []byte("user0000")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete error = %v, want ErrReadOnly", err)
	}
	if _, err := s.Compact(task); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact error = %v, want ErrReadOnly", err)
	}
	st := s.Stats()
	if !st.Degraded || st.ReadOnlyTransitions != 1 {
		t.Fatalf("stats: Degraded=%v ReadOnlyTransitions=%d", st.Degraded, st.ReadOnlyTransitions)
	}
	if !s.Degraded() {
		t.Fatal("Degraded() = false after transition")
	}
	// Committed documents keep serving.
	for k, v := range docs {
		got, ok, err := s.Get(task, []byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("doc %s unreadable in read-only mode: %v %v", k, ok, err)
		}
	}
	// A wear-key Set may have committed before the device latched
	// read-only, so the scan asserts the committed set is a subset.
	seen := map[string]bool{}
	if err := s.Scan(task, nil, nil, func(k, v []byte) bool { seen[string(k)] = true; return true }); err != nil {
		t.Fatal(err)
	}
	for k := range docs {
		if !seen[k] {
			t.Fatalf("scan missed doc %s in read-only mode", k)
		}
	}
}

func TestMaxFanoutControlsDepth(t *testing.T) {
	s, _, task := testStore(t, 2048, func(c *Config) {
		c.BatchSize = 64
		c.MaxFanout = 8
	})
	for i := 0; i < 600; i++ {
		if err := s.Set(task, []byte(fmt.Sprintf("user%06d", i)), val(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(task); err != nil {
		t.Fatal(err)
	}
	h, err := s.Height(task)
	if err != nil {
		t.Fatal(err)
	}
	// 600 keys at fanout 8: depth must be at least 3 (8^2=64 < 600).
	if h < 3 {
		t.Fatalf("height %d with fanout 8 and 600 keys", h)
	}
	for i := 0; i < 600; i++ {
		if _, ok, err := s.Get(task, []byte(fmt.Sprintf("user%06d", i))); err != nil || !ok {
			t.Fatalf("key %d lost under fanout cap: %v %v", i, ok, err)
		}
	}
}

func TestScanOrderedRange(t *testing.T) {
	s, _, task := testStore(t, 512, func(c *Config) { c.BatchSize = 16 })
	for i := 0; i < 300; i++ {
		if err := s.Set(task, []byte(fmt.Sprintf("user%05d", i)), val(i, 120)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(task); err != nil {
		t.Fatal(err)
	}
	var keys []string
	if err := s.Scan(task, []byte("user00050"), []byte("user00100"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		if len(v) != 120 {
			t.Fatalf("value len %d", len(v))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 50 {
		t.Fatalf("scan returned %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order at %d: %s >= %s", i, keys[i-1], keys[i])
		}
	}
	// Early stop.
	n := 0
	if err := s.Scan(task, nil, nil, func(k, v []byte) bool {
		n++
		return n < 7
	}); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("early stop scanned %d", n)
	}
}
