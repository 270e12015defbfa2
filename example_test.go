// Runnable examples of the public API on the paper's scenarios. go test
// runs each one and checks its output, which is deterministic: the device
// runs in virtual time, so the same code prints the same numbers.
package share_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"

	"share"
	"share/internal/couch"
	"share/internal/fsim"
	"share/internal/sim"
	"share/internal/sqlmini"
)

// Open a simulated SHARE-capable SSD, write two pages, and remap one
// logical page onto the other's physical page with a single SHARE command
// — the paper's core primitive. No data is copied; both logical addresses
// then read the same bytes.
func Example_quickstart() {
	dev, err := share.OpenDevice(share.DefaultConfig(256))
	if err != nil {
		log.Fatal(err)
	}
	t := share.NewTask("quickstart")

	old := bytes.Repeat([]byte("old!"), dev.PageSize()/4)
	new_ := bytes.Repeat([]byte("NEW."), dev.PageSize()/4)

	// A database would write the new version of page 7 into a journal
	// location (page 1000) first...
	if err := dev.WritePage(t, 7, old); err != nil {
		log.Fatal(err)
	}
	if err := dev.WritePage(t, 1000, new_); err != nil {
		log.Fatal(err)
	}
	if err := dev.Flush(t); err != nil {
		log.Fatal(err)
	}

	// ...and then, instead of writing it AGAIN at its home location,
	// remap home onto the journal copy. The command is atomic and durable
	// on return.
	if err := dev.Share(t, []share.Pair{{Dst: 7, Src: 1000, Len: 1}}); err != nil {
		log.Fatal(err)
	}

	got := make([]byte, dev.PageSize())
	if err := dev.ReadPage(t, 7, got); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("page 7 now reads %q... (no second write happened)\n", got[:8])

	st := dev.Stats()
	fmt.Printf("host writes: %d pages, SHARE commands: %d, virtual time: %.2f ms\n",
		st.FTL.HostWrites, st.FTL.Shares, float64(t.Now())/1e6)

	// The remap survives power failure: crash and recover the device.
	dev.Crash()
	if err := dev.Recover(t); err != nil {
		log.Fatal(err)
	}
	if err := dev.ReadPage(t, 7, got); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after crash+recovery page 7 still reads %q...\n", got[:8])
	// Output:
	// page 7 now reads "NEW.NEW."... (no second write happened)
	// host writes: 2 pages, SHARE commands: 1, virtual time: 5.47 ms
	// after crash+recovery page 7 still reads "NEW.NEW."...
}

const (
	accounts    = 8    // one account balance per page, pages 0..7
	shadowPages = 2000 // shadow area: pages 2000+, never live data
)

func balance(dev *share.Device, t *share.Task, page uint32) uint64 {
	buf := make([]byte, dev.PageSize())
	if err := dev.ReadPage(t, page, buf); err != nil {
		log.Fatal(err)
	}
	return binary.LittleEndian.Uint64(buf)
}

func setBalance(buf []byte, v uint64) { binary.LittleEndian.PutUint64(buf, v) }

func total(dev *share.Device, t *share.Task) uint64 {
	var sum uint64
	for p := uint32(0); p < accounts; p++ {
		sum += balance(dev, t, p)
	}
	return sum
}

// Atomic multi-page commit without a journal: the SQLite scenario from
// §3.3 of the paper. A transaction stages new versions of several pages
// in a shadow area, then one batched SHARE command installs all of them
// at their home locations atomically — no rollback journal, no write-ahead
// log, no second write of the data.
//
// The example commits a "bank transfer" touching three pages and crashes
// the device at the worst possible moments to show all-or-nothing
// behaviour.
func Example_atomicCommit() {
	dev, err := share.OpenDevice(share.DefaultConfig(256))
	if err != nil {
		log.Fatal(err)
	}
	t := share.NewTask("bank")

	// Initialize accounts with 100 units each and make them durable.
	buf := make([]byte, dev.PageSize())
	for p := uint32(0); p < accounts; p++ {
		setBalance(buf, 100)
		if err := dev.WritePage(t, p, buf); err != nil {
			log.Fatal(err)
		}
	}
	if err := dev.Flush(t); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial total: %d\n", total(dev, t))

	// The whole user-level protocol: stage writes each new page version
	// into the shadow area and remembers where it belongs; commit flushes
	// the shadow writes, then one SHARE batch remaps every home page onto
	// its shadow copy. Nothing is visible at home until the batch, and the
	// batch is all-or-nothing across power failure.
	var staged []share.Pair
	stage := func(page uint32, v uint64) {
		setBalance(buf, v)
		shadow := shadowPages + uint32(len(staged))
		if err := dev.WritePage(t, shadow, buf); err != nil {
			log.Fatal(err)
		}
		staged = append(staged, share.Pair{Dst: page, Src: shadow, Len: 1})
	}
	commit := func() {
		if err := dev.Flush(t); err != nil {
			log.Fatal(err)
		}
		if err := dev.ShareAll(t, staged); err != nil {
			log.Fatal(err)
		}
		staged = nil
	}

	// Transaction 1: move 30 units from account 0 to accounts 1 and 2 —
	// three pages must change together. Stage, then crash BEFORE commit.
	stage(0, 70)
	stage(1, 115)
	stage(2, 115)
	fmt.Println("crash before commit...")
	dev.Crash()
	if err := dev.Recover(t); err != nil {
		log.Fatal(err)
	}
	staged = nil // abort: the shadow copies are simply forgotten
	fmt.Printf("after recovery: balances %d/%d/%d, total %d (transaction invisible)\n",
		balance(dev, t, 0), balance(dev, t, 1), balance(dev, t, 2), total(dev, t))

	// Transaction 2: same transfer, committed this time; crash right after.
	stage(0, 70)
	stage(1, 115)
	stage(2, 115)
	commit()
	fmt.Println("crash after commit...")
	dev.Crash()
	if err := dev.Recover(t); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after recovery: balances %d/%d/%d, total %d (all three pages installed)\n",
		balance(dev, t, 0), balance(dev, t, 1), balance(dev, t, 2), total(dev, t))

	if total(dev, t) != accounts*100 {
		log.Fatal("money was created or destroyed!")
	}
	fmt.Println("invariant held: atomic commit with zero journal writes")
	// Output:
	// initial total: 800
	// crash before commit...
	// after recovery: balances 100/100/100, total 800 (transaction invisible)
	// crash after commit...
	// after recovery: balances 70/115/115, total 800 (all three pages installed)
	// invariant held: atomic commit with zero journal writes
}

// copyFile duplicates src into a new file without copying any data: it
// allocates the destination and SHAREs the whole range onto it. SHARE
// works in whole mapping units, so a trailing partial page, if any, is
// copied through the host.
func copyFile(t *share.Task, fs *fsim.FS, dstName string, src *fsim.File) (*fsim.File, error) {
	dst, err := fs.Create(t, dstName)
	if err != nil {
		return nil, err
	}
	size := src.Size()
	ps := int64(fs.Device().PageSize())
	whole := size / ps * ps
	if whole > 0 {
		if err := dst.Allocate(t, 0, whole); err != nil {
			return nil, err
		}
		if err := fs.ShareRange(t, dst, 0, src, 0, whole); err != nil {
			return nil, err
		}
	}
	if tail := size - whole; tail > 0 {
		buf := make([]byte, tail)
		if _, err := src.ReadAt(t, buf, whole); err != nil {
			return nil, err
		}
		if _, err := dst.WriteAt(t, buf, whole); err != nil {
			return nil, err
		}
	}
	return dst, dst.Truncate(t, size)
}

// Zero-copy file duplication through the file system's SHARE ioctl: the
// "file copy operations that can occur almost without copying data" case
// from §1 of the paper (the same idea as reflinks/cp --reflink, pushed
// down into the FTL).
func Example_fileCopy() {
	dev, err := share.OpenDevice(share.DefaultConfig(1024))
	if err != nil {
		log.Fatal(err)
	}
	t := share.NewTask("cp")
	fs, err := fsim.Format(t, dev, 64)
	if err != nil {
		log.Fatal(err)
	}

	// Create a ~10 MiB file.
	src, err := fs.Create(t, "big.dat")
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, 10<<20)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := src.WriteAt(t, data, 0); err != nil {
		log.Fatal(err)
	}
	if err := src.Sync(t); err != nil {
		log.Fatal(err)
	}

	before := dev.Stats()
	beforeTime := t.Now()
	dst, err := copyFile(t, fs, "big.copy", src)
	if err != nil {
		log.Fatal(err)
	}
	after := dev.Stats()

	fmt.Printf("copied %d MiB with %d data-page writes and %d SHARE pairs in %.2f virtual ms\n",
		dst.Size()>>20,
		after.FTL.HostWrites-before.FTL.HostWrites,
		after.FTL.SharePairs-before.FTL.SharePairs,
		float64(t.Now()-beforeTime)/1e6)

	// Verify, then prove the copies are independent: overwriting the
	// original must not change the copy (copy-on-write at the FTL).
	got := make([]byte, len(data))
	if _, err := dst.ReadAt(t, got, 0); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		log.Fatal("copy differs from original")
	}
	if _, err := src.WriteAt(t, []byte("scribble"), 0); err != nil {
		log.Fatal(err)
	}
	if _, err := dst.ReadAt(t, got[:8], 0); err != nil {
		log.Fatal(err)
	}
	if string(got[:8]) == "scribble" {
		log.Fatal("copy aliased the original")
	}
	fmt.Println("copy verified and independent of the original")
	// Output:
	// copied 10 MiB with 0 data-page writes and 8 SHARE pairs in 18.36 virtual ms
	// copy verified and independent of the original
}

func runJournalMode(mode sqlmini.Mode) {
	dev, err := share.OpenDevice(share.DefaultConfig(512))
	if err != nil {
		log.Fatal(err)
	}
	t := share.NewTask("sql")
	fs, err := fsim.Format(t, dev, 64)
	if err != nil {
		log.Fatal(err)
	}
	db, err := sqlmini.Open(t, fs, sqlmini.Config{Mode: mode, CheckpointEvery: 128})
	if err != nil {
		log.Fatal(err)
	}

	val := make([]byte, 120)
	dev.ResetStats()
	start := t.Now()
	const txns = 500
	for i := 0; i < txns; i++ {
		key := []byte(fmt.Sprintf("row%04d", i%200))
		if err := db.Update(t, func(tx *sqlmini.Tx) error {
			return tx.Put(key, val)
		}); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := float64(t.Now()-start) / float64(sim.Second)
	st := dev.Stats()
	fmt.Printf("%-18s %6.0f tps   %6d host page writes   %5d share pairs\n",
		mode, float64(txns)/elapsed, st.FTL.HostWrites, st.FTL.SharePairs)

	// Prove durability: crash and read everything back.
	dev.Crash()
	if err := dev.Recover(t); err != nil {
		log.Fatal(err)
	}
	fs2, err := fsim.Mount(t, dev)
	if err != nil {
		log.Fatal(err)
	}
	db2, err := sqlmini.Open(t, fs2, sqlmini.Config{Mode: mode, CheckpointEvery: 128})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, ok, err := db2.Get(t, []byte(fmt.Sprintf("row%04d", i))); err != nil || !ok {
			log.Fatalf("%v: row%04d lost after crash (%v %v)", mode, i, ok, err)
		}
	}
}

// Journal modes: the §3.3 SQLite scenario. The same OLTP update stream
// runs against an embedded B+tree database under its three commit
// protocols — rollback journal, WAL, and journaling turned off with
// SHARE — and prints the throughput and write-volume cost of each.
func Example_journalModes() {
	fmt.Println("500 single-row transactions, 200-row working set:")
	for _, mode := range []sqlmini.Mode{sqlmini.Rollback, sqlmini.WAL, sqlmini.Share} {
		runJournalMode(mode)
	}
	fmt.Println("\nall modes recovered every row after a power cut;")
	fmt.Println("SHARE does it with no journal and no second write.")
	// Output:
	// 500 single-row transactions, 200-row working set:
	// rollback-journal       42 tps     7268 host page writes       0 share pairs
	// wal                   131 tps     2324 host page writes       0 share pairs
	// SHARE                 146 tps     1547 host page writes    1024 share pairs
	//
	// all modes recovered every row after a power cut;
	// SHARE does it with no journal and no second write.
}

func runCompaction(shareMode bool) {
	dev, err := share.OpenDevice(share.DefaultConfig(1024))
	if err != nil {
		log.Fatal(err)
	}
	t := share.NewTask("compactor")
	fs, err := fsim.Format(t, dev, 64)
	if err != nil {
		log.Fatal(err)
	}
	st, err := couch.Open(t, fs, couch.Config{ShareMode: shareMode, BatchSize: 16})
	if err != nil {
		log.Fatal(err)
	}

	// Insert documents, then churn updates so most of the file is stale.
	val := make([]byte, 4000)
	for i := 0; i < 400; i++ {
		if err := st.Set(t, []byte(fmt.Sprintf("doc%04d", i)), val); err != nil {
			log.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 400; i++ {
			if err := st.Set(t, []byte(fmt.Sprintf("doc%04d", i)), val); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := st.Commit(t); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mode=%v file=%.1fMB stale=%.0f%%\n",
		map[bool]string{false: "original", true: "SHARE"}[shareMode],
		float64(st.FileSize())/(1<<20), 100*st.StaleRatio())

	cs, err := st.Compact(t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  compaction: %d docs, %.2f virtual seconds, %.2f MB written\n",
		cs.DocsMoved, float64(cs.Elapsed)/float64(sim.Second),
		float64(cs.BytesWritten)/(1<<20))

	// Everything still readable.
	for i := 0; i < 400; i++ {
		if _, ok, err := st.Get(t, []byte(fmt.Sprintf("doc%04d", i))); err != nil || !ok {
			log.Fatalf("doc%04d lost: %v %v", i, ok, err)
		}
	}
	fmt.Printf("  all 400 documents verified after compaction\n\n")
}

// Zero-copy compaction: the Couchbase scenario from §3.3 and Figure 3 of
// the paper. An append-only document store accumulates stale versions;
// the original compaction copies every live document into a new file,
// while the SHARE compaction fallocates the new file and just remaps —
// the documents never move physically.
func Example_zeroCompaction() {
	runCompaction(false)
	runCompaction(true)
	// Output:
	// mode=original file=7.4MB stale=73%
	//   compaction: 400 docs, 0.62 virtual seconds, 1.62 MB written
	//   all 400 documents verified after compaction
	//
	// mode=SHARE file=6.5MB stale=74%
	//   compaction: 400 docs, 0.08 virtual seconds, 0.06 MB written
	//   all 400 documents verified after compaction
}
