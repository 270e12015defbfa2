package crashcheck

import (
	"fmt"

	"share/internal/innodb"
	"share/internal/nand"
	"share/internal/pgmini"
	"share/internal/sqlmini"
)

// absorbable is the standard fault schedule of the per-engine fault rows:
// a transient program fault, a permanent program failure (block
// retirement mid-workload), an ECC-corrected read and an
// ECC-uncorrectable read that the FTL read-retry path recovers.
func absorbable(seed int64) func() *nand.FaultPlan {
	return func() *nand.FaultPlan {
		return nand.NewFaultPlan(seed).
			AtProgram(5, nand.FaultProgramTransient).
			AtProgram(40, nand.FaultProgramPermanent).
			AtRead(9, nand.FaultReadCorrectable).
			AtRead(25, nand.FaultReadUncorrectable)
	}
}

// patrolRefreshed requires that the clean run really refreshed blocks and
// that the aging model never lost data: crash tests need fully
// recoverable media.
func patrolRefreshed(r *rig, _ stack) error {
	st := r.data.LifetimeStats().FTL
	if st.PatrolRefreshes == 0 {
		return fmt.Errorf("patrol never refreshed a block; the matrix would not cover refresh windows")
	}
	if st.UncorrectableReads != 0 || st.LostPages != 0 {
		return fmt.Errorf("aging model lost data (uncorrectable %d, lost pages %d); crash tests require fully recoverable media",
			st.UncorrectableReads, st.LostPages)
	}
	return nil
}

// cacheDegraded requires that the seeded permanent faults drove the cache
// device read-only mid-run and that the engine surfaced it, once.
func cacheDegraded(r *rig, s stack) error {
	if !s.(*kvStack).db.(innoKV).eng.Stats().CacheDegraded {
		return fmt.Errorf("cache never degraded; raise the fault rate or shrink the spare budget")
	}
	if got := r.cache.Metrics().EventCounts()["cache-degraded"]; got != 1 {
		return fmt.Errorf("cache-degraded events = %d, want 1", got)
	}
	return nil
}

// cells is the crash matrix. Every mode of every engine is a row here or
// an entry of excluded (TestEveryEngineModeHasCell).
var cells = []cell{
	{test: "TestCrashMatrixInnoDBDWB", engine: inno(innodb.DWBOn, bigPool, false), shape: innoShape, txns: 24},
	{test: "TestCrashMatrixInnoDBShare", engine: inno(innodb.Share, bigPool, false), shape: innoShape, txns: 24},
	{test: "TestCrashMatrixInnoDBAtomicWrite", engine: inno(innodb.AtomicWrite, bigPool, false), shape: innoShape, txns: 24},
	{test: "TestCrashMatrixPgFPW", engine: pg(pgmini.FPWOn), txns: 24},
	{test: "TestCrashMatrixPgShare", engine: pg(pgmini.FPWShare), txns: 24},
	{test: "TestCrashMatrixCouchCopy", engine: couchStore("copy", false), shape: couchShape, txns: 26},
	{test: "TestCrashMatrixCouchShare", engine: couchStore("share", true), shape: couchShape, txns: 26},
	{test: "TestCrashMatrixSqlRollback", engine: sql(sqlmini.Rollback), shape: sqlShape, txns: 40},
	{test: "TestCrashMatrixSqlWAL", engine: sql(sqlmini.WAL), shape: sqlShape, txns: 40},
	{test: "TestCrashMatrixSqlShare", engine: sql(sqlmini.Share), shape: sqlShape, txns: 40},

	// Power cuts inside patrol-scrub refresh windows.
	{test: "TestCrashMatrixCouchPatrol", engine: couchStore("share", true), variant: "patrol", shape: couchShape, txns: 14,
		aging: true, afterStep: patrol, cleanCheck: patrolRefreshed},

	// All three tiers cut: data, log and the flash-extended cache device
	// (fills, mapping-journal appends, map checkpoints; in write-back mode
	// also dirty fills and writeback-then-truncate windows). A cut on the
	// cache device leaves it dead for the rest of the workload, so each
	// cut doubles as a mid-run cache-loss run.
	{test: "TestCrashMatrixInnoDBCache", engine: inno(innodb.DWBOn, tinyPool, false), variant: "cache",
		shape: cacheShape, txns: 24, cache: true},
	{test: "TestCrashMatrixInnoDBCacheWriteBack", engine: inno(innodb.DWBOn, tinyPool, true), variant: "cache-wb",
		shape: cacheShape, txns: 24, cache: true},

	// Four sessions commit through the group-commit path while the cut
	// lands, including inside coalesced log flushes.
	{test: "TestCrashConcurrentInnoDBDWB", engine: inno(innodb.DWBOn, bigPool, false), variant: "conc",
		shape: concShape, txns: 10, sessions: 4},
	{test: "TestCrashConcurrentInnoDBShare", engine: inno(innodb.Share, bigPool, false), variant: "conc",
		shape: concShape, txns: 10, sessions: 4},

	// The full workload under an absorbable NAND fault plan, then a crash.
	{test: "TestFaultPlanInnoDB", engine: inno(innodb.DWBOn, bigPool, false), variant: "fault", shape: innoShape, txns: 24, fault: absorbable(7)},
	{test: "TestFaultPlanInnoDB", engine: inno(innodb.Share, bigPool, false), variant: "fault", shape: innoShape, txns: 24, fault: absorbable(7)},
	{test: "TestFaultPlanPg", engine: pg(pgmini.FPWOn), variant: "fault", txns: 24, fault: absorbable(11)},
	{test: "TestFaultPlanPg", engine: pg(pgmini.FPWShare), variant: "fault", txns: 24, fault: absorbable(11)},
	{test: "TestFaultPlanCouch", engine: couchStore("copy", false), variant: "fault", shape: couchShape, txns: 26, fault: absorbable(13)},
	{test: "TestFaultPlanCouch", engine: couchStore("share", true), variant: "fault", shape: couchShape, txns: 26, fault: absorbable(13)},
	// ... on the cache device: cache-tier faults must never surface as
	// transaction failures.
	{test: "TestFaultPlanInnoDBCache", engine: inno(innodb.DWBOn, tinyPool, false), variant: "cache-fault",
		shape: cacheShape, txns: 24, cache: true, fault: absorbable(17)},
	{test: "TestFaultPlanInnoDBCache", engine: inno(innodb.DWBOn, tinyPool, true), variant: "cache-wb-fault",
		shape: cacheShape, txns: 24, cache: true, fault: absorbable(17)},
	// Seeded permanent program faults retire cache blocks until the tiny
	// spare budget is gone: the engine must keep acknowledging, surface
	// the degradation, and recover the complete workload.
	{test: "TestCacheReadOnlyDegradationZeroLoss", engine: inno(innodb.DWBOn, tinyPool, false), variant: "cache-degraded",
		shape: cacheShape, txns: 24, cache: true, cacheSpares: 2, cleanCheck: cacheDegraded,
		fault: func() *nand.FaultPlan {
			p := nand.NewFaultPlan(23)
			p.PProgramPermanent = 0.15
			return p
		}},
}

// excluded names the engine modes that deliberately have no row, and why.
var excluded = map[string]string{
	"innodb/DWB-Off": "no torn-page protection by design (the paper's unsafe upper bound): " +
		"a cut inside an in-place page write legitimately loses committed data, so the oracle does not apply",
	"pgmini/full_page_writes=off": "same: without full-page images a torn heap page cannot be repaired, " +
		"which is the unsafety the pgfpw experiment quantifies, not a durability mode",
}
