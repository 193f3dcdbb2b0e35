package main

import (
	"bytes"
	"strings"
	"testing"
)

func oneRun(workload string, vals map[string]float64) *workloadResult {
	r := &workloadResult{Name: workload, EndToEnd: map[string]metricValue{}}
	for k, v := range vals {
		r.EndToEnd[k] = metricValue{Value: v}
	}
	return r
}

func boundOf(t *testing.T, name string) float64 {
	t.Helper()
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("no end-to-end metric %s", name)
	return 0
}

func TestCompareAppliesDirectionAndBound(t *testing.T) {
	base := map[string]float64{"ops_per_s": 1000, "op_p50_ms": 1.0, "fail_ratio": 0}
	// Just inside and just outside each metric's bound, in its bad direction.
	opsIn, opsOut := 1000*(1-boundOf(t, "ops_per_s"))+1, 1000*(1-boundOf(t, "ops_per_s"))-1
	p50In, p50Out := 1+boundOf(t, "op_p50_ms")-0.001, 1+boundOf(t, "op_p50_ms")+0.001
	a := &report{Runs: []*workloadResult{
		oneRun("browse-warm", base), oneRun("browse-warm", base), oneRun("browse-warm", base),
	}}
	cases := []struct {
		name string
		b    map[string]float64
		want int
		row  string
	}{
		{"identical", base, 0, ""},
		{"inside both bounds", map[string]float64{"ops_per_s": opsIn, "op_p50_ms": p50In, "fail_ratio": 0}, 0, ""},
		{"throughput fell past its bound", map[string]float64{"ops_per_s": opsOut, "op_p50_ms": 1.0, "fail_ratio": 0}, 1, "ops_per_s"},
		{"latency rose past its bound", map[string]float64{"ops_per_s": 1000, "op_p50_ms": p50Out, "fail_ratio": 0}, 1, "op_p50_ms"},
		{"improvements never fail", map[string]float64{"ops_per_s": 2000, "op_p50_ms": 0.5, "fail_ratio": 0}, 0, ""},
		{"any higher fail ratio", map[string]float64{"ops_per_s": 1000, "op_p50_ms": 1.0, "fail_ratio": 0.001}, 1, "fail_ratio"},
		{"a metric went missing", map[string]float64{"ops_per_s": 1000, "fail_ratio": 0}, 1, "op_p50_ms"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		got := compareReports(a, &report{Runs: []*workloadResult{oneRun("browse-warm", tc.b)}}, &out)
		if got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
		if tc.row != "" {
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.Contains(line, tc.row) && (strings.Contains(line, "REGRESSED") || strings.Contains(line, "MISSING")) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no failing row for %s\n%s", tc.name, tc.row, out.String())
			}
		}
	}
}

func TestCompareTakesTheMedianOfRuns(t *testing.T) {
	a := &report{Runs: []*workloadResult{oneRun("open-view", map[string]float64{"op_p50_ms": 2})}}
	// One wild run out of three must not trip the gate.
	b := &report{Runs: []*workloadResult{
		oneRun("open-view", map[string]float64{"op_p50_ms": 2.01}),
		oneRun("open-view", map[string]float64{"op_p50_ms": 9}),
		oneRun("open-view", map[string]float64{"op_p50_ms": 1.99}),
	}}
	var out bytes.Buffer
	if code := compareReports(a, b, &out); code != 0 {
		t.Errorf("median of runs regressed:\n%s", out.String())
	}
}
