package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Every workload for a 300 ms window, then a traced pass: enough to keep
// the harness from rotting, short enough for every test run.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(runConfig{Workload: w.Name, Seed: 11, Seconds: 0.3, SetupReps: 1, MinSamples: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.correct() {
			t.Errorf("%s: attempted %d failed %d guards %+v failures %v", w.Name, res.Attempted, res.Failed, res.Guards, res.Failures)
		}
		for _, m := range endToEnd {
			v, ok := res.EndToEnd[m.Name]
			if want := m.Only == "" || m.Only == w.Name; ok != want {
				t.Errorf("%s: metric %s reported=%v, want %v", w.Name, m.Name, ok, want)
			}
			if ok && m.Name != "fail_ratio" && v.Value <= 0 {
				t.Errorf("%s: %s = %v", w.Name, m.Name, v.Value)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	names := []string{"browse-warm", "voice-stream"}
	if !testing.Short() {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		spanFile := filepath.Join(t.TempDir(), "spans.jsonl")
		res, err := runWorkload(runConfig{Workload: name, Seed: 12, Seconds: 1, Trace: true, MinSamples: 1, SpanFile: spanFile})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.correct() {
			t.Errorf("%s: attempted %d failed %d guards %+v failures %v", name, res.Attempted, res.Failed, res.Guards, res.Failures)
		}
		for _, m := range perLayer {
			if _, ok := res.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, m.Name)
			}
		}
		if cov := res.PerLayer["trace.coverage_ratio"].Value; cov < 0.95 {
			t.Errorf("%s: trace.coverage_ratio = %v", name, cov)
		}
		data, err := os.ReadFile(spanFile)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var first map[string]any
		if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first["layer"] == nil {
			t.Errorf("%s: span file line 1 is %q (%v)", name, lines[0], err)
		}
	}
}

// The driver's contract: one JSON object on the last line, with the
// BENCHMARK.json end-to-end metrics and nothing else.
func TestContractLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := realMain([]string{"--workload", "browse-warm", "--seed", "3", "--seconds", "0.3", "--trace", "0"}, &out, &errOut)
	// 0.3 s holds fewer than the 1000 samples a p99 needs only on a very
	// slow box; either way the line must be there and well-formed.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("exit %d, last line %q: %v\n%s", code, lines[len(lines)-1], err, errOut.String())
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || *got.Attempted < 1 {
		t.Fatalf("incomplete contract line %q", lines[len(lines)-1])
	}
	want := contractEndToEnd()
	if len(got.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(got.Metrics), len(want))
	}
	for _, m := range want {
		g, ok := got.Metrics[m.Name]
		if !ok || g.Value == nil || *g.Value <= 0 || g.Unit != m.Unit {
			t.Errorf("metric %s: %+v", m.Name, g)
		}
	}
}

// The sliced window must last the window, and report the rate ops really
// completed at.
func TestSlicedWindow(t *testing.T) {
	rn := &runner{}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rn.completed.Add(2)
			}
		}
	}()
	const w = 300 * time.Millisecond
	t0 := time.Now()
	rate, _ := sliced(rn, w)
	took := time.Since(t0)
	close(stop)
	<-done
	if took < w || took > w+w/2 {
		t.Errorf("a %v window took %v", w, took)
	}
	if rate < 1000 || rate > 2200 {
		t.Errorf("2 ops per ~1 ms tick read as %.0f ops/s", rate)
	}
}
