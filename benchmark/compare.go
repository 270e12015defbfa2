package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, per workload and end-to-end metric, both values,
// the relative change and the bound, and returns the exit code: 1 if any
// metric got worse by more than its bound or more ops failed, else 0. It
// is the tool two sets of runs of one commit are checked for agreement
// with, and a parent and a change for regressions.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	return compareResults(w, a, b)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

func compareResults(w io.Writer, a, b *resultFile) int {
	code := 0
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			change := ratio(vb-va, va)
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			verdict := "within-bound"
			switch {
			case worse > d.Bound:
				verdict = "regressed"
				code = 1
			case worse < -d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-18s %-18s %14.4f %14.4f %+7.2f%% %5.0f%%  %s\n",
				wl.Name, d.Name, va, vb, change*100, d.Bound*100, verdict)
		}
		// error_rate: any rise is a regression, whatever the size.
		ea, eb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		verdict := "within-bound"
		if eb > ea {
			verdict = "regressed"
			code = 1
		}
		fmt.Fprintf(w, "%-18s %-18s %14.6f %14.6f %8s %6s  %s\n", wl.Name, "error_rate", ea, eb, "", "any", verdict)
	}
	return code
}
