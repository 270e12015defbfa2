// Atomic multi-page commit without a journal: the SQLite scenario from
// §3.3 of the paper. A transaction stages new versions of several pages
// in a shadow area, then one batched SHARE command installs all of them
// at their home locations atomically — no rollback journal, no write-ahead
// log, no second write of the data.
//
// The example commits a "bank transfer" touching three pages and crashes
// the device at the worst possible moments to show all-or-nothing
// behaviour.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"share"
)

const (
	accounts = 8    // one account balance per page, pages 0..7
	scratch  = 2000 // shadow area: pages 2000+, never live data
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

func main() {
	dev, err := share.OpenDevice(share.DeviceOptions{Blocks: 256})
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
		shadow := scratch + uint32(len(staged))
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
}
