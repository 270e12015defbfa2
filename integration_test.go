// Full-stack integration tests: device → FTL → file system → engine →
// workload, with power cuts injected between phases. These complement the
// per-module tests by exercising the exact layering the experiments use.
package share_test

import (
	"bytes"
	"fmt"
	"testing"

	"share"
	"share/internal/couch"
	"share/internal/fsim"
	"share/internal/innodb"
	"share/internal/linkbench"
	"share/internal/nand"
	"share/internal/sim"
	"share/internal/sqlmini"
	"share/internal/ssd"
	"share/internal/ycsb"
)

// smallPages is a device of 512-byte pages and 32-page blocks, small
// enough for the engines to fill and garbage-collect it within a test.
func smallPages(blocks int) share.Config {
	cfg := share.DefaultConfig(blocks)
	cfg.Geometry.PageSize, cfg.Geometry.PagesPerBlock = 512, 32
	return cfg
}

func newStack(t *testing.T, blocks int) (*share.Device, *fsim.FS, *sim.Task) {
	t.Helper()
	dev, err := share.OpenDevice(smallPages(blocks))
	if err != nil {
		t.Fatal(err)
	}
	task := share.NewTask("stack")
	fs, err := fsim.Format(task, dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	return dev, fs, task
}

func powerCycle(t *testing.T, dev *share.Device, task *sim.Task) *fsim.FS {
	t.Helper()
	dev.Crash()
	if err := dev.Recover(task); err != nil {
		t.Fatal(err)
	}
	fs, err := fsim.Mount(task, dev)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func fastLog(t *testing.T) *ssd.Device {
	t.Helper()
	cfg := ssd.DefaultConfig(256)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	cfg.Timing = nand.Timing{
		ReadPage: 20 * sim.Microsecond, Program: 50 * sim.Microsecond,
		Erase: 500 * sim.Microsecond, Transfer: 5 * sim.Microsecond,
	}
	cfg.FTL.PowerCapacitor = true
	dev, err := ssd.New("log", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestIntegrationLinkBenchSurvivesPowerCut runs a small LinkBench load +
// benchmark in SHARE mode, power-cycles the machine, and verifies the
// engine recovers and keeps serving.
func TestIntegrationLinkBenchSurvivesPowerCut(t *testing.T) {
	dev, fs, task := newStack(t, 1024)
	logDev := fastLog(t)
	cfg := innodb.Config{
		PageSize: 1024, PoolBytes: 128 * 1024, FlushMode: innodb.Share,
		DWBPages: 16, DataBytes: 4 << 20, LogPages: 4096,
	}
	eng, err := innodb.Open(task, fs, logDev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lcfg := linkbench.Config{Nodes: 400, Clients: 4, Requests: 150, Warmup: 20, Seed: 5}
	if err := linkbench.Load(task, eng, lcfg); err != nil {
		t.Fatal(err)
	}
	res, err := linkbench.Run(eng, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	fs2 := powerCycle(t, dev, task)
	eng2, err := innodb.Open(task, fs2, logDev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The graph is still consistent enough to run another round.
	if _, err := linkbench.Run(eng2, lcfg); err != nil {
		t.Fatal(err)
	}
	if err := dev.FTLForTest().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationYCSBWithCompactionAndPowerCut churns a SHARE-mode couch
// store through compactions, power-cycles, and verifies every record.
func TestIntegrationYCSBWithCompactionAndPowerCut(t *testing.T) {
	dev, fs, task := newStack(t, 2048)
	ccfg := couch.Config{ShareMode: true, BatchSize: 8, CompactThreshold: 0.4, DocCacheEntries: 32}
	st, err := couch.Open(task, fs, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ycfg := ycsb.Config{Records: 120, ValueSize: 900, Ops: 700, Workload: ycsb.WorkloadF, Seed: 3, AutoCompact: true}
	if err := ycsb.Load(task, st, ycfg); err != nil {
		t.Fatal(err)
	}
	res, err := ycsb.Run(task, st, ycfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compactions == 0 {
		t.Fatal("expected at least one compaction")
	}
	fs2 := powerCycle(t, dev, task)
	st2, err := couch.Open(task, fs2, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if _, ok, err := st2.Get(task, ycsb.Key(i)); err != nil || !ok {
			t.Fatalf("record %d lost after compactions + power cut: %v %v", i, ok, err)
		}
	}
	if err := dev.FTLForTest().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationMixedTenants runs two engines (sqlmini SHARE mode and a
// couch store) side by side on ONE device/file system — the multi-tenant
// sharing case — with interleaved commits and a final power cut.
func TestIntegrationMixedTenants(t *testing.T) {
	dev, fs, task := newStack(t, 2048)
	db, err := sqlmini.Open(task, fs, sqlmini.Config{Mode: sqlmini.Share, Name: "tenant.sql"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := couch.Open(task, fs, couch.Config{ShareMode: true, BatchSize: 4, Name: "tenant.couch"})
	if err != nil {
		t.Fatal(err)
	}
	doc := bytes.Repeat([]byte{0xD0}, 700)
	for i := 0; i < 120; i++ {
		k := []byte(fmt.Sprintf("k%04d", i%40))
		if err := db.Update(task, func(tx *sqlmini.Tx) error {
			return tx.Put(k, []byte(fmt.Sprintf("sql-%d", i)))
		}); err != nil {
			t.Fatal(err)
		}
		if err := st.Set(task, k, doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(task); err != nil {
		t.Fatal(err)
	}
	fs2 := powerCycle(t, dev, task)
	db2, err := sqlmini.Open(task, fs2, sqlmini.Config{Mode: sqlmini.Share, Name: "tenant.sql"})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := couch.Open(task, fs2, couch.Config{ShareMode: true, BatchSize: 4, Name: "tenant.couch"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 80; i < 120; i++ { // last writers
		k := []byte(fmt.Sprintf("k%04d", i%40))
		v, ok, err := db2.Get(task, k)
		if err != nil || !ok {
			t.Fatalf("sql %s: %v %v", k, ok, err)
		}
		if string(v) != fmt.Sprintf("sql-%d", i) {
			t.Fatalf("sql %s = %q", k, v)
		}
		dv, ok, err := st2.Get(task, k)
		if err != nil || !ok || !bytes.Equal(dv, doc) {
			t.Fatalf("couch %s bad after power cut: %v %v", k, ok, err)
		}
	}
	if err := dev.FTLForTest().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationPublicAPIWithAging exercises the public facade: age a
// drive, then use SHARE through it and survive a crash, with the FTL
// invariants checked throughout.
func TestIntegrationPublicAPIWithAging(t *testing.T) {
	dev, err := share.OpenDevice(smallPages(256))
	if err != nil {
		t.Fatal(err)
	}
	task := share.NewTask("age")
	if err := dev.Age(task, 0.8, 0.5, 9); err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{0xA0}, 512)
	b := bytes.Repeat([]byte{0xB0}, 512)
	if err := dev.WritePage(task, 10, a); err != nil {
		t.Fatal(err)
	}
	if err := dev.WritePage(task, 7000, b); err != nil {
		t.Fatal(err)
	}
	if err := dev.Flush(task); err != nil {
		t.Fatal(err)
	}
	if err := dev.Share(task, []share.Pair{{Dst: 10, Src: 7000, Len: 1}}); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	if err := dev.Recover(task); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := dev.ReadPage(task, 10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("share on aged drive lost across crash")
	}
	if err := dev.FTLForTest().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
