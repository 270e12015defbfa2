package crashcheck

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"share/internal/innodb"
	"share/internal/pgmini"
	"share/internal/sqlmini"
)

// ran marks the rows of cells some test executed.
var ran = make([]bool, len(cells))

// TestMain fails a full run (no -run or -list filter) in which a row of
// the table was never executed: a row whose test field names no wrapper
// below would otherwise silently stop being a gate.
func TestMain(m *testing.M) {
	code := m.Run()
	full := flag.Lookup("test.run").Value.String() == "" && flag.Lookup("test.list").Value.String() == ""
	if code == 0 && full {
		for i := range cells {
			if !ran[i] {
				fmt.Fprintf(os.Stderr, "crashcheck: row %s (test %s) was never run\n", cells[i].name(), cells[i].test)
				code = 1
			}
		}
	}
	os.Exit(code)
}

// runCells runs every row of the table that names the calling test.
func runCells(t *testing.T) {
	n := 0
	for i := range cells {
		if cells[i].test == t.Name() {
			Matrix(t, &cells[i])
			ran[i] = true
			n++
		}
	}
	if n == 0 {
		t.Fatalf("no row of cells names %s", t.Name())
	}
}

// One wrapper per cell, so CI's -run patterns and the test floor keep
// selecting them by name; what each runs is its rows in cells_test.go.
func TestCrashMatrixInnoDBDWB(t *testing.T)             { runCells(t) }
func TestCrashMatrixInnoDBShare(t *testing.T)           { runCells(t) }
func TestCrashMatrixInnoDBAtomicWrite(t *testing.T)     { runCells(t) }
func TestCrashMatrixPgFPW(t *testing.T)                 { runCells(t) }
func TestCrashMatrixPgShare(t *testing.T)               { runCells(t) }
func TestCrashMatrixCouchCopy(t *testing.T)             { runCells(t) }
func TestCrashMatrixCouchShare(t *testing.T)            { runCells(t) }
func TestCrashMatrixCouchPatrol(t *testing.T)           { runCells(t) }
func TestCrashMatrixSqlRollback(t *testing.T)           { runCells(t) }
func TestCrashMatrixSqlWAL(t *testing.T)                { runCells(t) }
func TestCrashMatrixSqlShare(t *testing.T)              { runCells(t) }
func TestCrashMatrixInnoDBCache(t *testing.T)           { runCells(t) }
func TestCrashMatrixInnoDBCacheWriteBack(t *testing.T)  { runCells(t) }
func TestCrashConcurrentInnoDBDWB(t *testing.T)         { runCells(t) }
func TestCrashConcurrentInnoDBShare(t *testing.T)       { runCells(t) }
func TestFaultPlanInnoDB(t *testing.T)                  { runCells(t) }
func TestFaultPlanPg(t *testing.T)                      { runCells(t) }
func TestFaultPlanCouch(t *testing.T)                   { runCells(t) }
func TestFaultPlanInnoDBCache(t *testing.T)             { runCells(t) }
func TestCacheReadOnlyDegradationZeroLoss(t *testing.T) { runCells(t) }

// TestEveryEngineModeHasCell: every value of every engine's mode enum is
// either a row of the matrix or a named exclusion with its reason — a
// future mode with neither fails here.
func TestEveryEngineModeHasCell(t *testing.T) {
	covered := map[string]bool{}
	for i := range cells {
		covered[cells[i].engine.name+"/"+cells[i].engine.mode] = true
	}
	check := func(engine, mode string) {
		key := engine + "/" + mode
		switch reason, skip := excluded[key]; {
		case covered[key] && skip:
			t.Errorf("%s is both a row and an exclusion", key)
		case skip && reason == "":
			t.Errorf("%s is excluded without a reason", key)
		case !covered[key] && !skip:
			t.Errorf("%s has neither a crash-matrix row nor a named exclusion", key)
		}
	}
	// The mode enums are dense from zero and stringify unknown values as "?".
	for m := innodb.FlushMode(0); m.String() != "?"; m++ {
		check("innodb", m.String())
	}
	for m := pgmini.Mode(0); m.String() != "?"; m++ {
		check("pgmini", m.String())
	}
	for m := sqlmini.Mode(0); m.String() != "?"; m++ {
		check("sqlmini", m.String())
	}
	check("couch", "copy")
	check("couch", "share")
}
