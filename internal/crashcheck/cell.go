package crashcheck

import (
	"share/internal/nand"
	"share/internal/sim"
)

// cell is one row of the crash matrix: an engine in one mode, the devices
// under it, the workload shape that fixes its boundary space, and whatever
// makes the row special.
type cell struct {
	test    string // the top-level test that runs this row
	engine  engine
	variant string // tells apart rows sharing an engine and mode
	shape          // key/value workload; unused by pgmini's TPC-B
	txns    int    // transactions per session
	// sessions > 1 runs that many scheduler sessions committing at the
	// same virtual time through the engine's group-commit path, each on
	// its own key partition.
	sessions    int
	cache       bool // add the flash-extended cache device
	cacheSpares int  // non-zero: shrink its block-retirement budget
	aging       bool // data device on decaying media with a low patrol threshold
	// afterStep runs after every acknowledged transaction; a power cut
	// armed on a device fires inside it exactly as inside a commit.
	afterStep func(r *rig) error
	// fault is installed once the preload is durable — on the cache device
	// if the row has one, else on the data device — and turns the row
	// into one full run under the plan, with no cuts.
	fault func() *nand.FaultPlan
	// cleanCheck proves the clean run exercised what the row exists for;
	// otherwise the row would be the plain one wearing a costume.
	cleanCheck func(r *rig, s stack) error
}

func (c *cell) name() string {
	if c.variant == "" {
		return c.engine.name + "/" + c.engine.mode
	}
	return c.engine.name + "/" + c.engine.mode + "/" + c.variant
}

// Workload shapes. Transaction counts are small enough that the exhaustive
// boundary space stays tractable, large enough to cross several engine
// checkpoints, couch commits and sqlmini WAL checkpoints.
var (
	// 17 short rows on one leaf, checkpoint every 8 transactions.
	innoShape = shape{keyFmt: "key%02d", keys: 17, valBytes: 6, perTxn: 3, ckptEvery: 8}
	// 33 keys of ~200 bytes span far more pages than the 8-frame pool
	// holds, so every transaction evicts through the cache tier; the
	// preload is one key per transaction because no-steal pins a
	// transaction's dirty pages until commit.
	cacheShape = shape{keyFmt: "ck%03d", keys: 33, valBytes: 200, perTxn: 3, preloadTxn: 1, readStride: 3, ckptEvery: 8}
	// ~600-byte documents span two device pages.
	couchShape = shape{keyFmt: "doc%02d", keys: 13, valBytes: 600, perTxn: 1, preloadTxn: 1}
	// Each session rewrites its whole three-key partition every
	// transaction, so after recovery a stale key is a lost acknowledged
	// commit, a newer one a phantom, and disagreeing keys a torn
	// transaction — the bug class page stealing from an unsynced
	// transaction would produce.
	concShape = shape{keyFmt: "k%03d", keys: 3, valBytes: 7, perTxn: 3}
	// 17 rows of ~200 bytes over several leaves: a transaction dirties two
	// to four pages plus the meta page — the multi-page atomicity §3.3
	// turns the journal off for.
	sqlShape = shape{keyFmt: "row%02d", keys: 17, valBytes: 200, perTxn: 3}
)

const (
	bigPool  = 64 * 1024
	tinyPool = 8 * 1024 // 8 frames: every step evicts through the cache
)

// patrol ages retained data between transactions — fast enough that
// blocks keep crossing the patrol threshold — then gives the scrubber its
// duty-cycle slice, so the boundary space includes points inside refresh
// windows (a refresh relocates a whole block's live pages and erases it).
func patrol(r *rig) error {
	r.data.AdvanceMediaTime(150 * sim.Millisecond)
	for k := 0; k < 2; k++ {
		if _, err := r.data.PatrolStep(r.task); err != nil {
			return err
		}
	}
	return nil
}
