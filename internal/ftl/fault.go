package ftl

import (
	"errors"
	"sync/atomic"

	"share/internal/nand"
	"share/internal/sim"
)

// Bad-block management. Every NAND program in the FTL goes through
// programPage, which absorbs the chip's failure modes: a failed program is
// retried once (transient faults clear), and if the retry fails too the
// block is treated as permanently bad — its live pages are rescued to other
// blocks, the block is retired, and the in-flight data is re-steered to a
// fresh page. Erase failures (injected or wear-out) retire the victim the
// same way via GC. Retirements consume the spare budget carved out of the
// over-provisioned area; once it is exhausted the device degrades to a
// read-only mode instead of corrupting state.

// ErrReadOnly is returned for mutating commands after the device has
// degraded: so many blocks were retired that the spare pool is exhausted
// and further writes could no longer be guaranteed durable. Reads — and
// flushing already-acknowledged state — still work.
var ErrReadOnly = errors.New("ftl: device degraded to read-only (spare blocks exhausted)")

// ReadOnlyLatch is the host-side half of the degradation: a storage engine
// embeds one, passes every device error through Note, and from the first
// ErrReadOnly on reports Degraded — mutations then fail fast with the
// engine's own sentinel while reads keep serving. The latch never clears:
// a device out of spare blocks does not recover.
type ReadOnlyLatch struct {
	sentinel    error
	degraded    atomic.Bool
	transitions atomic.Int64
}

// NewReadOnlyLatch returns a latch whose Note answers a read-only device
// error with sentinel: the embedding engine's own ErrReadOnly, which wraps
// this package's so that one errors.Is matches every layer's form.
func NewReadOnlyLatch(sentinel error) ReadOnlyLatch { return ReadOnlyLatch{sentinel: sentinel} }

// Degraded reports whether a read-only device error has been seen.
func (l *ReadOnlyLatch) Degraded() bool { return l.degraded.Load() }

// ReadOnlyTransitions counts device degradations observed (0 or 1).
func (l *ReadOnlyLatch) ReadOnlyTransitions() int64 { return l.transitions.Load() }

// Note passes err through unless it is a read-only device failure, which
// it latches (counting the transition the first time) and replaces by the
// sentinel.
func (l *ReadOnlyLatch) Note(err error) error {
	if err == nil || !errors.Is(err, ErrReadOnly) {
		return err
	}
	if l.degraded.CompareAndSwap(false, true) {
		l.transitions.Add(1)
	}
	return l.sentinel
}

// programPage allocates a page on stream s and programs data+oob into it.
// NAND program faults are handled here, in one place, for every write path
// (host writes, forced copies, atomic batches, GC relocation, mapping
// metadata): retry once on failure, then retire the block and re-steer.
func (f *FTL) programPage(s *stream, data []byte, oob nand.OOB) (sim.Duration, uint32, error) {
	var total sim.Duration
	for {
		d, ppn, err := f.allocDataPage(s)
		total += d
		if err != nil {
			return total, 0, err
		}
		d, ppn, ok, err := f.programAttempts(s, ppn, data, oob)
		total += d
		if err != nil {
			return total, 0, err
		}
		if ok {
			return total, ppn, nil
		}
		// Retirement re-steered the stream; loop to allocate a fresh page.
	}
}

// programPageOn is programPage pinned to one die — GC relocation uses it
// so a copyback never leaves the victim's die (no cross-die traffic, and
// cleaning one die stays off the others' schedules). It never triggers GC.
func (f *FTL) programPageOn(s *stream, die int, data []byte, oob nand.OOB) (sim.Duration, uint32, error) {
	var total sim.Duration
	for {
		ppn, err := f.allocOn(s, die)
		if err != nil {
			return total, 0, err
		}
		d, ppn, ok, aerr := f.programAttempts(s, ppn, data, oob)
		total += d
		if aerr != nil {
			return total, 0, aerr
		}
		if ok {
			return total, ppn, nil
		}
	}
}

// programAttempts runs the program-retry-retire state machine for one
// allocated page: program, retry once on a media fault, and on a second
// failure retire the page's block (rescuing its live pages) so the caller
// re-steers onto a fresh one. ok reports whether ppn now holds the data.
func (f *FTL) programAttempts(s *stream, ppn uint32, data []byte, oob nand.OOB) (sim.Duration, uint32, bool, error) {
	var total sim.Duration
	// Every program is stamped with the writing stream's identity so
	// recovery can hand partially-written blocks back to their exact owner.
	oob.Stream = s.id
	pd, err := f.chip.Program(ppn, data, oob)
	f.notePPNOp(OpProgram, ppn, pd)
	total += pd
	if err == nil {
		return total, ppn, true, nil
	}
	if !errors.Is(err, nand.ErrProgramFail) {
		return total, 0, false, err // power cut, bounds: not a media fault
	}
	f.st.ProgramRetries++
	pd, err = f.chip.Program(ppn, data, oob)
	f.notePPNOp(OpProgram, ppn, pd)
	total += pd
	if err == nil {
		return total, ppn, true, nil
	}
	if !errors.Is(err, nand.ErrProgramFail) {
		return total, 0, false, err
	}
	// The retry failed too: treat the block as permanently bad, rescue its
	// live pages, and let the caller re-steer the data onto a fresh block.
	f.st.ProgramFails++
	d, rerr := f.retireStreamBlock(s, f.geo.DieOfPPN(ppn))
	total += d
	if rerr != nil {
		return total, 0, false, rerr
	}
	return total, 0, false, nil
}

// retireStreamBlock takes s's current block on one die out of service
// after a permanent program failure: the append point is detached so the
// next allocation opens a fresh block, still-live pages are relocated (the
// block is suspect), and the block joins the retired set.
func (f *FTL) retireStreamBlock(s *stream, die int) (sim.Duration, error) {
	ap := &s.open[die]
	b := ap.block
	ap.block = -1
	ap.next = 0
	if b < 0 {
		return 0, nil
	}
	f.blockFull[b] = true
	buf := f.getPageBuf()
	total, err := f.relocateLive(b, buf)
	f.putPageBuf(buf)
	if err != nil {
		return total, err
	}
	f.retireBlock(b)
	return total, nil
}

// retireBlock permanently removes block b from service: it never rejoins
// the free pool. When retirements exceed the spare budget the device
// transitions to read-only — the remaining blocks can still back every
// acknowledged write, but no new ones.
func (f *FTL) retireBlock(b int) {
	if f.retired[b] {
		return
	}
	f.st.RetiredBlocks++
	f.clearPoison(b)
	f.noteRetired(b)
}

// noteRetired records b as out of service and checks the spare budget. The
// Recover path uses it directly: rediscovering the chip's persistent
// bad-block marks after a crash must not recount them in Stats.
func (f *FTL) noteRetired(b int) {
	if f.retired[b] {
		return
	}
	f.retired[b] = true
	f.retiredN++
	f.emit(Event{Type: EvBlockRetired, Block: b, A: int64(f.SpareBlocksLeft())})
	if f.retiredN > f.spareBudget && !f.readOnly {
		f.readOnly = true
		f.emit(Event{Type: EvReadOnly, Block: -1, A: int64(f.retiredN)})
	}
}

// relocateLive moves every live page — valid data and live FTL metadata —
// out of block b. Shared by GC (before erase) and block retirement.
func (f *FTL) relocateLive(b int, buf []byte) (sim.Duration, error) {
	var total sim.Duration
	dataBefore, metaBefore := f.st.Copybacks, f.st.MetaMoves
	defer func() {
		if d, m := f.st.Copybacks-dataBefore, f.st.MetaMoves-metaBefore; d+m > 0 {
			f.emit(Event{Type: EvCopyback, Block: b, A: d, B: m})
		}
	}()
	base := uint32(b * f.geo.PagesPerBlock)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		ppn := base + uint32(i)
		if f.chip.State(ppn) != nand.PageProgrammed {
			continue
		}
		oob, err := f.chip.ReadOOB(ppn)
		if err != nil {
			return total, err
		}
		switch oob.Tag {
		case nand.TagData:
			if f.refs[ppn] == 0 {
				continue // stale data page
			}
			d, err := f.relocateData(ppn, buf)
			total += d
			if err != nil {
				return total, err
			}
		case nand.TagMapBase, nand.TagMapLog:
			if !f.metaLive[ppn] {
				continue // superseded snapshot or truncated log page
			}
			d, err := f.relocateMeta(ppn, oob, buf)
			total += d
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// The ECC retry ladder and scrubbing. An uncorrectable fast read is often
// a recoverable condition (read disturb, charge drift) that a stronger —
// and slower — correction step can still decode, so chipRead escalates
// through the chip's read strengths before surfacing data loss: the fast
// on-the-fly ECC pass, then a shifted-sense re-read after a short firmware
// backoff, then a soft-decision decode over multiple sense levels at
// several times the read latency. A page that needed any escalation to
// come back is living on suspect media: its whole block is queued for
// scrubbing — live pages relocated to fresh flash, the block erased and
// returned to service — at the next safe point (outside GC and atomic
// batches), so the next read does not gamble on the same cells again.

const (
	// readRetryLimit is the number of escalation rungs above the fast read
	// (shifted-sense re-read, then soft decode).
	readRetryLimit = 2
	// readRetryBackoff is the extra firmware delay charged per escalation,
	// multiplied by the rung number (reconfigure sense voltages, resample).
	readRetryBackoff = 40 * sim.Microsecond
)

// chipRead reads a physical page through the ECC retry ladder. Only a read
// that stays uncorrectable after the full ladder is counted and surfaced
// to the caller as data loss: with no on-device redundancy beyond per-page
// ECC it cannot be rehomed. A read recovered by any escalation queues its
// block for scrubbing.
func (f *FTL) chipRead(ppn uint32, dst []byte) (nand.OOB, sim.Duration, error) {
	if len(f.poisoned) != 0 && f.poisoned[ppn] {
		// Pending sector: an earlier relocation already proved this data
		// lost, and the copy here is only the loss marker. Firmware answers
		// from the pending list after the plain sense — no point running the
		// ladder over bits it knows are gone.
		oob, d, _ := f.chip.Read(ppn, dst)
		f.notePPNOp(OpRead, ppn, d)
		f.st.UncorrectableReads++
		return oob, d, nand.ErrUncorrectable
	}
	oob, d, err := f.chip.Read(ppn, dst)
	f.notePPNOp(OpRead, ppn, d)
	total := d
	retries := 0
	if errors.Is(err, nand.ErrUncorrectable) {
		// Rung 2: re-read with a shifted sense voltage.
		retries++
		f.st.ReadRetries++
		total += readRetryBackoff
		oob, d, err = f.chip.ReadShifted(ppn, dst)
		f.notePPNOp(OpRead, ppn, d)
		total += d
	}
	if errors.Is(err, nand.ErrUncorrectable) {
		// Rung 3: soft-decision decode, the strongest correction available.
		retries++
		f.st.ReadRetries++
		f.st.SoftDecodes++
		total += 2 * readRetryBackoff
		oob, d, err = f.chip.ReadSoft(ppn, dst)
		f.notePPNOp(OpRead, ppn, d)
		total += d
	}
	if retries > 0 {
		b := f.chip.BlockOf(ppn)
		recovered := int64(0)
		if err == nil {
			recovered = 1
			f.queueScrub(b)
		}
		f.emit(Event{Type: EvReadRetry, Block: b, A: int64(retries), B: recovered})
	}
	if errors.Is(err, nand.ErrUncorrectable) {
		f.st.UncorrectableReads++
	}
	return oob, total, err
}

// queueScrub marks block b for relocation at the next safe point. Already
// retired or already queued blocks are skipped.
func (f *FTL) queueScrub(b int) {
	if f.retired[b] || f.scrubSet[b] {
		return
	}
	f.scrubSet[b] = true
	f.scrubQueue = append(f.scrubQueue, b)
}

// maybeScrub drains the scrub queue. It runs only at safe points — from a
// host mutating command, never re-entrantly from GC or inside an atomic
// batch, and not once the device is read-only (scrubbing writes). A block
// that cannot be scrubbed right now (no relocation headroom) is requeued
// rather than failing the host command.
func (f *FTL) maybeScrub() (sim.Duration, error) {
	if len(f.scrubQueue) == 0 || f.inGC || f.inBatch || f.readOnly {
		return 0, nil
	}
	var total sim.Duration
	for len(f.scrubQueue) > 0 {
		b := f.scrubQueue[0]
		f.scrubQueue = f.scrubQueue[1:]
		delete(f.scrubSet, b)
		if f.retired[b] || f.isOpenBlock(b) || !f.blockFull[b] {
			continue // retired meanwhile, still filling, or back in the free pool
		}
		d, err := f.scrubBlock(b)
		total += d
		if err == ErrFull && f.metaHeal {
			// A rotten live metadata page blocks this scrub; heal it from
			// RAM (forced checkpoint) and retry the block once.
			hd, herr := f.healMeta()
			total += hd
			if herr != nil {
				return total, herr
			}
			d, err = f.scrubBlock(b)
			total += d
		}
		if err == ErrFull {
			f.queueScrub(b)
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// scrubBlock refreshes one suspect block: relocate its live pages, make the
// relocation deltas durable, erase it and return it to the free pool. An
// erase failure retires the block instead — exactly the GC path.
func (f *FTL) scrubBlock(b int) (sim.Duration, error) {
	f.inGC = true
	defer func() { f.inGC = false }()
	movedBefore := f.st.Copybacks + f.st.MetaMoves
	buf := f.getPageBuf()
	total, err := f.relocateLive(b, buf)
	f.putPageBuf(buf)
	if err != nil {
		return total, err
	}
	// The relocation deltas must be durable before the suspect copies are
	// destroyed, or a crash would recover mappings into an erased block.
	if len(f.deltaBuf) > 0 {
		d, err := f.flushDeltaPage()
		total += d
		if err != nil {
			return total, err
		}
	}
	d, err := f.chip.EraseBlock(b)
	f.noteEraseOp(b, d)
	total += d
	moved := f.st.Copybacks + f.st.MetaMoves - movedBefore
	f.st.ScrubRelocations += moved
	f.st.ScrubbedBlocks++
	f.emit(Event{Type: EvScrub, Block: b, A: moved})
	if nand.Retirable(err) {
		if !errors.Is(err, nand.ErrWornOut) {
			f.st.EraseFails++
		}
		f.retireBlock(b)
		return total, nil
	}
	if err != nil {
		return total, err
	}
	f.st.Erases++
	f.blockFull[b] = false
	f.blockValid[b] = 0
	f.clearPoison(b)
	die := f.geo.DieOfBlock(b)
	f.freeByDie[die] = append(f.freeByDie[die], b)
	return total, nil
}

// clearPoison forgets a block's pending-sector marks: erasure destroys the
// poisoned replacement copies, and a retired block is never read again.
func (f *FTL) clearPoison(b int) {
	if len(f.poisoned) == 0 {
		return
	}
	base := uint32(b * f.geo.PagesPerBlock)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		delete(f.poisoned, base+uint32(i))
	}
}

// healMeta rewrites rotten on-flash metadata from RAM. A live mapping
// snapshot or delta-log page that no ECC rung could read is not data loss
// while the device is powered — the in-memory mapping is authoritative — so
// the repair is a forced checkpoint: dirty snapshots (including any marked
// dirty because their flash copy was unreadable) are rewritten fresh and
// the delta log is truncated, after which the unreadable copies are stale
// and their blocks reclaim normally.
func (f *FTL) healMeta() (sim.Duration, error) {
	if !f.metaHeal || f.inBatch {
		return 0, nil
	}
	f.metaHeal = false
	wasGC := f.inGC
	f.inGC = true // the checkpoint's own programs must not re-enter GC
	d, err := f.Checkpoint()
	f.inGC = wasGC
	return d, err
}

// ReadOnly reports whether the device has degraded to read-only mode.
func (f *FTL) ReadOnly() bool { return f.readOnly }

// SpareBlocksLeft reports how many more block retirements the device can
// absorb before degrading to read-only.
func (f *FTL) SpareBlocksLeft() int {
	if left := f.spareBudget - f.retiredN; left > 0 {
		return left
	}
	return 0
}
