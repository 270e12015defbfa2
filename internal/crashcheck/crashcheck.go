// Package crashcheck is the whole-stack crash-recovery harness: a shared
// durability oracle drives a deterministic transaction workload against
// each host engine (innodb, pgmini, couch, sqlmini) over the simulated
// flash stack, injects a power cut at every device program/erase boundary
// (or a seeded sample in -short mode), restarts the stack — FTL recovery
// and invariant check, file system journal replay and fsck, engine
// recovery — and asserts that no acknowledged transaction was lost and no
// unacknowledged transaction surfaced partially.
//
// Every cell is a row of one table (cells_test.go) run by one driver (Matrix)
// on one rig (rig.go); engines plug in through the two-method kv surface
// in workload.go.
//
// The oracle is a pure model of the workload: transaction i's effects are
// a deterministic function of i, so the recovered engine state must equal
// the model after exactly `committed` transactions, or after
// `committed+1` when the in-flight transaction's commit record became
// durable just before the ack was lost. Anything else — a lost commit, a
// phantom write, a torn multi-key transaction — fails the run.
//
// Sampling is controlled by the CRASHCHECK_SEED environment variable
// (default seed 1), so a failing sampled run can be reproduced exactly by
// exporting the same seed.
package crashcheck

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"share/internal/sim"
)

// shortSample is how many crash points are sampled per device in -short
// mode (the first and last boundary are always included).
const shortSample = 8

// Seed returns the crash-point sampling seed: the CRASHCHECK_SEED
// environment variable if set, else 1.
func Seed() int64 {
	if s := os.Getenv("CRASHCHECK_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

// cutPoints selects which boundaries in [1, total] to crash at. Long mode
// is exhaustive; -short samples shortSample points seeded by Seed()^salt.
func cutPoints(total int64, short bool, salt int64) []int64 {
	if total <= 0 {
		return nil
	}
	if !short || total <= shortSample {
		all := make([]int64, total)
		for i := range all {
			all[i] = int64(i) + 1
		}
		return all
	}
	rng := rand.New(rand.NewSource(Seed() ^ salt))
	picked := map[int64]bool{1: true, total: true}
	for len(picked) < shortSample {
		picked[2+rng.Int63n(total-2)] = true
	}
	out := make([]int64, 0, len(picked))
	for c := range picked {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// drive runs every session's transactions until they finish or the power
// is lost, and reports per session how many were acknowledged and how
// many attempted (attempted == acked+1 when a commit died mid-flight),
// plus the first step error. One session runs on the rig's own task;
// several run as scheduler tasks, which makes the interleaving — and
// therefore every cut point, including cuts inside a coalesced log flush
// carrying several sessions' commit records — deterministic.
func drive(c *cell, r *rig, s stack) (acked, attempted []int, err error) {
	n := max(c.sessions, 1)
	acked, attempted = make([]int, n), make([]int, n)
	session := func(t *sim.Task, sess int) {
		for i := 0; i < c.txns; i++ {
			attempted[sess] = i + 1
			if e := s.step(t, sess, i); e != nil {
				if err == nil {
					err = fmt.Errorf("session %d step %d: %w", sess, i, e)
				}
				return
			}
			acked[sess] = i + 1
		}
	}
	if n == 1 {
		session(r.task, 0)
		return
	}
	sched := sim.NewScheduler()
	for sess := 0; sess < n; sess++ {
		sched.Go(fmt.Sprintf("sess%d", sess), func(t *sim.Task) { session(t, sess) })
	}
	sched.Run()
	return
}

// Matrix runs one row of the crash matrix: it measures the boundary space
// of the workload on every device with a clean run (verifying recovery of
// the complete workload along the way), then crashes a fresh stack at each
// selected boundary of each device and verifies the durability oracle
// after recovery. A row with a fault plan stops after the clean run: the
// plan's faults must be ones the stack absorbs (transient program faults,
// retired blocks, ECC-corrected or retried reads), so every transaction
// still acknowledges and the whole workload survives the power cycle.
func Matrix(t testing.TB, c *cell) {
	name := c.name()
	fresh := func() (*rig, stack) {
		r, err := newRig(c)
		var s stack
		if err == nil && c.engine.open != nil {
			s, err = newKVStack(c, r)
		} else if err == nil {
			s, err = newPgStack(c, r)
		}
		if err == nil && c.fault != nil {
			target := r.data
			if c.cache {
				target = r.cache
			}
			err = target.SetFaultPlan(c.fault())
		}
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		return r, s
	}
	restart := func(where string, r *rig, s stack, acked, attempted []int) {
		if err := r.powerCycle(); err != nil {
			t.Fatalf("%s: power cycle: %v", where, err)
		}
		if err := s.reopen(); err != nil {
			t.Fatalf("%s: reopen: %v", where, err)
		}
		if err := s.verify(acked, attempted); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}

	r, s := fresh()
	totals := r.mutatingOps()
	acked, attempted, err := drive(c, r, s)
	if err != nil {
		t.Fatalf("%s: clean run: %v", name, err)
	}
	for i, after := range r.mutatingOps() {
		totals[i] = after - totals[i]
	}
	t.Logf("%s: boundary totals %v", name, totals)
	if c.cleanCheck != nil {
		if err := c.cleanCheck(r, s); err != nil {
			t.Fatalf("%s: clean run: %v", name, err)
		}
	}
	// A crash after the full workload must preserve everything.
	restart(name+": clean run", r, s, acked, attempted)
	if c.fault != nil {
		return
	}

	for di, total := range totals {
		for _, cut := range cutPoints(total, testing.Short(), int64(di)*7919+int64(len(name))) {
			r, s := fresh()
			r.devs[di].PowerCutAfter(cut)
			acked, attempted, _ := drive(c, r, s)
			for _, d := range r.devs {
				d.DisablePowerCut()
			}
			restart(fmt.Sprintf("%s: dev %d cut %d/%d (acked %v, attempted %v, seed %d)",
				name, di, cut, total, acked, attempted, Seed()), r, s, acked, attempted)
		}
	}
}

// checkState reads every key of the two acceptable model states (they
// share one key set) and returns nil when the engine matches either of
// them exactly.
func checkState(read func(key string) (string, error), afterAcked, afterAttempted map[string]string) error {
	isAcked, isAttempted := true, true
	for k, w := range afterAcked {
		g, err := read(k)
		if err != nil {
			return fmt.Errorf("read %s: %w", k, err)
		}
		if g != w && g != afterAttempted[k] {
			return fmt.Errorf("durability violation: %q = %.16q, want %.16q (committed) or %.16q (in-flight)",
				k, g, w, afterAttempted[k])
		}
		isAcked = isAcked && g == w
		isAttempted = isAttempted && g == afterAttempted[k]
	}
	if !isAcked && !isAttempted {
		return fmt.Errorf("torn recovery: state mixes committed and in-flight transaction effects")
	}
	return nil
}
