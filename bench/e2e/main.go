// Command e2e is the MINOS end-to-end wall-clock benchmark: it builds the
// deployed stack in one process on real loopback TCP — net/http client,
// gateway, workstation session, routed cluster client, multiplexed wire,
// shard servers, block cache, device model, segmented index — drives it
// in wall-clock time with seeded inputs, verifies every answer, and prints
// every metric by name with its unit, direction, clock and sample count.
//
//	e2e -workload all -seed 1986 -out -        every workload, end to end
//	e2e -workload browse-cold -trace 1         one workload's per-layer numbers
//	e2e -compare a.json b.json                 gate b against a
//
// The repository's BENCHMARK.json runs it one workload at a time
// (--workload W --seed N --seconds S --trace 0|1); the last line of
// standard output is then the one-object JSON summary the driver reads.
// README.md documents every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// report is the -out file: what ran, where, and every run's numbers.
type report struct {
	Go         string            `json:"go"`
	Commit     string            `json:"commit"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Load       string            `json:"load"`
	Runs       []*workloadResult `json:"runs"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1986, "corpus, query and load seed")
	seconds := fs.Float64("seconds", 10, "measuring time per run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics from seam spans and ladder rungs")
	runs := fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...; -compare takes their median")
	out := fs.String("out", "", "write every run as JSON to this file (- = standard output)")
	spans := fs.String("spans", "", "traced runs: span file (default .bench_build/spans-<workload>.jsonl)")
	commit := fs.String("commit", "unknown", "label recorded in -out")
	compare := fs.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2e: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	var names []string
	if *workload == "all" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := findWorkload(*workload); ok {
		names = []string{*workload}
	} else {
		fmt.Fprintf(stderr, "e2e: unknown workload %q\n", *workload)
		return 2
	}

	rep := &report{
		Go: runtime.Version(), Commit: *commit, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Load: fmt.Sprintf("closed loop, %d clients, zero think time, one keep-alive HTTP connection each (traced runs: 1 client); publish-browse adds one open-loop writer at %d/s; loopback TCP, not a link", clients, publishRate),
	}
	fmt.Fprintf(stdout, "# %s nproc=%d GOMAXPROCS=%d commit=%s\n# %s\n", rep.Go, rep.NProc, rep.GOMAXPROCS, rep.Commit, rep.Load)
	var last *workloadResult
	for _, name := range names {
		for k := 0; k < max(*runs, 1); k++ {
			cfg := runConfig{
				Workload: name, Seed: *seed + uint64(k), Seconds: *seconds, Trace: *trace != 0,
				SetupReps: 3, SetupBudget: 1500 * time.Millisecond, MinSamples: 1000,
			}
			if cfg.Trace {
				cfg.SpanFile = *spans
				if cfg.SpanFile == "" {
					cfg.SpanFile = filepath.Join(".bench_build", "spans-"+name+".jsonl")
				}
				if err := os.MkdirAll(filepath.Dir(cfg.SpanFile), 0o755); err != nil {
					fmt.Fprintf(stderr, "e2e: %v\n", err)
					return 1
				}
			}
			if len(rep.Runs) > 0 {
				resetPeakRSS()
			}
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "e2e: %s: %v\n", name, err)
				return 1
			}
			printResult(stdout, res)
			rep.Runs = append(rep.Runs, res)
			last = res
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			data = append(data, '\n')
			if *out == "-" {
				_, err = stdout.Write(data)
			} else {
				err = os.WriteFile(*out, data, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "e2e: write %s: %v\n", *out, err)
			return 1
		}
	}
	if len(rep.Runs) == 1 {
		fmt.Fprintln(stdout, contractLine(last))
	}
	return exitCode(rep.Runs)
}

// exitCode is 0 only when every run verified every answer and held every
// shape guard.
func exitCode(runs []*workloadResult) int {
	for _, r := range runs {
		if !r.correct() {
			return 1
		}
	}
	return 0
}

// printResult lists one run: every metric with unit, direction, clock and
// sample count, then the shape guards.
func printResult(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s  op=%s seed=%d seconds=%g clients=%d attempted=%d failed=%d\n",
		r.Name, r.Op, r.Seed, r.Seconds, r.Clients, r.Attempted, r.Failed)
	list := func(specs []metricSpec, vals map[string]metricValue) {
		for _, m := range specs {
			if v, ok := vals[m.Name]; ok {
				fmt.Fprintf(w, "%-34s %14.4f %-6s better=%-6s clock=%-5s n=%d\n", m.Name, v.Value, v.Unit, v.Better, v.Clock, v.Samples)
			}
		}
	}
	list(endToEnd, r.EndToEnd)
	list(perLayer, r.PerLayer)
	for _, g := range r.Guards {
		verdict := "ok"
		if !g.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "guard %-34s %-6s (%s)\n", g.Name, verdict, g.Detail)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
}

// contractLine is the driver's summary of a single run: the BENCHMARK.json
// end_to_end metrics on an untraced run, the per_layer ones on a traced
// run.
func contractLine(r *workloadResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if len(r.PerLayer) > 0 {
		for name, v := range r.PerLayer {
			metrics[name] = mv{v.Value, v.Unit}
		}
	} else {
		for _, m := range contractEndToEnd() {
			if v, ok := r.EndToEnd[m.Name]; ok {
				metrics[m.Name] = mv{v.Value, v.Unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}
