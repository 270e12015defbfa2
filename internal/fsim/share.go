package fsim

import (
	"fmt"

	"share/internal/sim"
	"share/internal/ssd"
)

// ShareSeg is one segment of a vectored SHARE: Len bytes of Dst starting at
// DstOff are remapped onto the physical pages currently backing Src at
// SrcOff. Offsets and Len must be page aligned and the destination range
// already allocated (Allocate/fallocate first), matching how the paper's
// modified Couchbase prepares the new database file.
type ShareSeg struct {
	Dst    *File
	DstOff int64
	Src    *File
	SrcOff int64
	Len    int64
}

// ShareVec is the SHARE ioctl: every engine's remap — a flush batch of
// pages, a commit's documents, a whole compaction — is one call. It is the
// single place file offsets become device pairs: both extent maps are
// resolved under the FS latch and the commands are issued outside it, like
// the data I/O of ReadAt/WriteAt.
//
// Each segment becomes one ranged pair per physically contiguous run (so
// one pair when neither file is fragmented there, whatever the other
// file's extent boundaries), and the pair list goes to the device's
// ShareAll, whose packing never tears a pair — hence never an engine page
// or document laid out contiguously — across two atomic commands. Each
// issued SHARE command is atomic on its own, exactly like the prototype's
// vendor-unique SATA command; the sequence is not.
func (fs *FS) ShareVec(t *sim.Task, segs []ShareSeg) error {
	fs.latch.Lock(t)
	pairs, err := fs.sharePairs(segs)
	fs.latch.Unlock(t)
	if err != nil {
		return err
	}
	return fs.dev.ShareAll(t, pairs)
}

// ShareRange is ShareVec for a single segment.
func (fs *FS) ShareRange(t *sim.Task, dst *File, dstOff int64, src *File, srcOff int64, length int64) error {
	return fs.ShareVec(t, []ShareSeg{{Dst: dst, DstOff: dstOff, Src: src, SrcOff: srcOff, Len: length}})
}

// PageImage is one engine page bound for its home in a file: the page
// lives at PageNo × len(Data).
type PageImage struct {
	PageNo uint32
	Data   []byte // owned by the caller; StageShare does not retain it
}

// StageShare installs pages at their homes in f without writing f: page i
// is written once into slot i of stage, stage is fsynced, and one ShareVec
// remaps every home onto its slot (§4.2, §5.1). The SHARE commands are
// durable on return, so f needs no fsync. A batch larger than the stage
// area (stage.Size() / len(Data) slots) goes in consecutive loads, each
// atomic on its own, so callers needing one atomic batch must bound it by
// the slot count.
func (f *File) StageShare(t *sim.Task, stage *File, pages []PageImage) error {
	if len(pages) == 0 {
		return nil
	}
	ps := int64(len(pages[0].Data))
	if ps == 0 || stage.Size() < ps {
		return fmt.Errorf("fsim: stage area %q (%d bytes) holds no %d-byte page", stage.name, stage.Size(), ps)
	}
	slots := int(stage.Size() / ps)
	for len(pages) > 0 {
		load := pages[:min(len(pages), slots)]
		pages = pages[len(load):]
		segs := make([]ShareSeg, len(load))
		for i, pg := range load {
			if _, err := stage.WriteAt(t, pg.Data, int64(i)*ps); err != nil {
				return err
			}
			segs[i] = ShareSeg{Dst: f, DstOff: int64(pg.PageNo) * ps, Src: stage, SrcOff: int64(i) * ps, Len: ps}
		}
		if err := stage.Sync(t); err != nil {
			return err
		}
		if err := f.fs.ShareVec(t, segs); err != nil {
			return err
		}
	}
	return nil
}

// sharePairs translates segments to device pairs. Latch held.
func (fs *FS) sharePairs(segs []ShareSeg) ([]ssd.Pair, error) {
	var pairs []ssd.Pair
	for _, sg := range segs {
		dst, err := sg.Dst.MapRange(sg.DstOff, sg.Len)
		if err != nil {
			return nil, fmt.Errorf("fsim: share dst: %w", err)
		}
		src, err := sg.Src.MapRange(sg.SrcOff, sg.Len)
		if err != nil {
			return nil, fmt.Errorf("fsim: share src: %w", err)
		}
		// Walk both run lists in step; a pair ends where either side does.
		for len(dst) > 0 && len(src) > 0 {
			d, s := &dst[0], &src[0]
			run := min(d.Len, s.Len)
			if overlaps(d.Start, s.Start, run) {
				// Degenerate layout (a file shared onto its own physical
				// neighborhood): a ranged pair must not overlap itself, so
				// fall back to single-page pairs.
				for i := uint32(0); i < run; i++ {
					pairs = append(pairs, ssd.Pair{Dst: d.Start + i, Src: s.Start + i, Len: 1})
				}
			} else {
				pairs = append(pairs, ssd.Pair{Dst: d.Start, Src: s.Start, Len: run})
			}
			d.Start, d.Len = d.Start+run, d.Len-run
			if d.Len == 0 {
				dst = dst[1:]
			}
			s.Start, s.Len = s.Start+run, s.Len-run
			if s.Len == 0 {
				src = src[1:]
			}
		}
	}
	return pairs, nil
}

func overlaps(a, b, n uint32) bool { return a < b+n && b < a+n }
