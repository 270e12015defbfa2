// Zero-copy file duplication through the file system's SHARE ioctl: the
// "file copy operations that can occur almost without copying data" case
// from §1 of the paper (the same idea as reflinks/cp --reflink, pushed
// down into the FTL).
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"share"
	"share/internal/fsim"
)

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

func main() {
	dev, err := share.OpenDevice(share.DeviceOptions{Blocks: 1024})
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
}
