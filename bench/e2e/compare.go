package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare a.json b.json: the regression gate. For every (end-to-end
// metric, workload) pair it takes the median over each file's runs,
// applies the metric's direction and bound, and prints one row with both
// values and b/a. It fails on any pair that worsened by more than its
// bound, on a higher fail_ratio, and on a pair b no longer reports. Run on
// two result sets of one commit it is the A/A check: everything must pass.

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// medians folds a report into workload -> metric -> median over its runs.
func (r *report) medians() map[string]map[string]float64 {
	vals := map[string]map[string][]float64{}
	for _, run := range r.Runs {
		if vals[run.Name] == nil {
			vals[run.Name] = map[string][]float64{}
		}
		for name, v := range run.EndToEnd {
			vals[run.Name][name] = append(vals[run.Name][name], v.Value)
		}
	}
	out := map[string]map[string]float64{}
	for w, ms := range vals {
		out[w] = map[string]float64{}
		for name, v := range ms {
			out[w][name] = median(v)
		}
	}
	return out
}

// worsened reports whether b is worse than a by more than the metric's
// bound. A bound of 0 tolerates no worsening at all.
func worsened(m metricSpec, a, b float64) bool {
	if m.Better == "higher" {
		return b < a*(1-m.Bound)
	}
	return b > a*(1+m.Bound)
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	ra, err := loadReport(pathA)
	if err == nil {
		var rb *report
		if rb, err = loadReport(pathB); err == nil {
			return compareReports(ra, rb, stdout)
		}
	}
	fmt.Fprintf(stderr, "e2e: %v\n", err)
	return 2
}

func compareReports(ra, rb *report, w io.Writer) int {
	a, b := ra.medians(), rb.medians()
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	regressions := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, ok := a[wl.Name][m.Name]
			if !ok {
				continue // a never measured it; nothing to hold b to
			}
			vb, ok := b[wl.Name][m.Name]
			verdict := "ok"
			switch {
			case !ok:
				verdict = "MISSING"
			case worsened(m, va, vb):
				verdict = "REGRESSED"
			}
			if verdict != "ok" {
				regressions++
			}
			rel := "-"
			if va != 0 {
				rel = fmt.Sprintf("%.4f", vb/va)
			}
			fmt.Fprintf(w, "%-15s %-18s %14.4f %14.4f %8s %6.0f%%  %s (%s is better)\n",
				wl.Name, m.Name, va, vb, rel, 100*m.Bound, verdict, m.Better)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(w, "no regression")
	return 0
}
