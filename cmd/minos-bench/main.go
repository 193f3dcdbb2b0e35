// Command minos-bench is the benchmark-regression harness: it runs the
// hot-path benchmarks (`go test -bench -benchmem`) over the render/encode
// packages, parses the standard benchmark output and writes a JSON report
// with ns/op, B/op and allocs/op per benchmark. Committed reports
// (BENCH_<n>.json) pin the numbers a PR was accepted against, so a later
// change that regresses allocations is caught by diffing reports, not by
// re-reading terminal scrollback.
//
// Usage:
//
//	minos-bench [-out file] [-bench regex] [-benchtime d]
//	            [-load] [-shard] [-stream] [-gate] [-index] [pkg ...]
//
// The report goes to stdout unless -out names a file. The experiments'
// scales and seeds are the constants below — the values every committed
// BENCH file since BENCH_6 was produced with — so two reports differ only
// by the code they ran. The default package set covers the
// rasterize→encode, miniature-serve, synthesis and wire paths measured by
// the E-ALLOC experiment, the stream layer (one spoken part over loopback
// TCP, the PCM decode loop), plus the page-to-PNG path of a gateway view
// (raster Or, screen render, PNG encode).
//
// With -load the report additionally carries the E-LOAD mass-session run:
// the internal/loadgen harness drives the configured fleet in-process
// against a fresh corpus and the measured latency percentiles, shed rate,
// fairness ratio and device-wait histogram are embedded under "load".
//
// With -shard the report carries the E-SHARD scaling sweep: the corpus is
// partitioned across N = 1/2/4/8 shards by the cluster hash ring, each
// shard gets the identical per-shard configuration, a saturating hot
// population scaled with N drives the fleet, and the aggregate device-path
// throughput plus p99 per width is embedded under "shard" — together with
// a 2-shard mid-run primary-failure run showing replica failover.
//
// With -gate the report carries the E-GATE run: N web browse sessions
// multiplexed through the gateway tier over a shared backend pool, the
// office mix on the virtual clock, with push-latency percentiles, the
// encoded-PNG cache hit rate and the same-scale direct-client baseline p99
// embedded under "gate".
//
// With -stream the report carries the E-STREAM run: a >=10 s spoken part
// streamed over the mux on the simulated 10 Mbit/s link (time-to-first-
// audio vs the batch full download, underrun count), the progressive
// browse screen (time-to-usable vs the batch miniature delivery), the
// mid-stream replica failover resume and the per-chunk allocation guard,
// embedded under "stream".
//
// With -index the report carries the E-INDEX run: the segmented content
// index built serially and in parallel over a synthetic corpus (bit-identity
// between the two checked), then the planned-vs-naive query battery,
// embedded under "e_index".
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"minos/internal/cluster"
	"minos/internal/loadgen"
)

// defaultPackages are the hot-path packages the E-ALLOC experiment tracks.
var defaultPackages = []string{
	"./internal/image",
	"./internal/screen",
	"./internal/gateway",
	"./internal/voice",
	"./internal/server",
	"./internal/wire",
}

// The experiment scales. One value each: a report is comparable with the
// committed ones only at these.
const (
	runSeed = 1986 // every experiment's seed

	loadSessions    = 10_000
	loadDuration    = 30 * time.Second
	loadMaxInFlight = 64 // server admission bound

	shardSessions    = 64 // saturating sessions per shard
	shardDuration    = 20 * time.Second
	shardMaxInFlight = 8 // per-shard admission bound

	gateSessions = 120
	gateDuration = 20 * time.Second
	gateSlots    = 64 // fair-share step slots; the pool is sessions/8

	indexDocs    = 1_000_000
	indexQueries = 200
	indexWorkers = 4 // parallel build width
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// LoadReport is the embedded E-LOAD result: one mass-session run of the
// internal/loadgen harness. Latencies are reported in milliseconds so the
// committed JSON diffs readably.
type LoadReport struct {
	Sessions      int     `json:"sessions"`
	DurationMs    float64 `json:"duration_ms"`
	MaxInFlight   int     `json:"max_in_flight"`
	Seed          uint64  `json:"seed"`
	Steps         int64   `json:"steps"`
	Offered       int64   `json:"offered"`
	Sheds         int64   `json:"sheds"`
	Degraded      int64   `json:"degraded"`
	ShedRate      float64 `json:"shed_rate"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	FairnessRatio float64 `json:"fairness_ratio"`
	MinSteps      int64   `json:"min_steps"`
	MaxSteps      int64   `json:"max_steps"`
	DevWaits      []int64 `json:"dev_waits"`
}

// ShardPoint is one width of the E-SHARD scaling sweep.
type ShardPoint struct {
	Shards      int   `json:"shards"`
	Sessions    int   `json:"sessions"`
	Steps       int64 `json:"steps"`
	DeviceSteps int64 `json:"device_steps"`
	// Throughput is device-path completions per virtual second.
	Throughput float64 `json:"throughput_per_s"`
	P99Ms      float64 `json:"p99_ms"`
	ShedRate   float64 `json:"shed_rate"`
}

// ShardFailover is the embedded replica-failover run: a 2-shard fleet
// whose shard-0 primary dies mid-experiment.
type ShardFailover struct {
	Shards        int     `json:"shards"`
	Sessions      int     `json:"sessions"`
	FailShard     int     `json:"fail_shard"`
	FailAtMs      float64 `json:"fail_at_ms"`
	Steps         int64   `json:"steps"`
	DeviceSteps   int64   `json:"device_steps"`
	FailoverSteps int64   `json:"failover_steps"`
	P99Ms         float64 `json:"p99_ms"`
	MinSteps      int64   `json:"min_steps"`
}

// ShardReport is the embedded E-SHARD result.
type ShardReport struct {
	SessionsPerShard int          `json:"sessions_per_shard"`
	DurationMs       float64      `json:"duration_ms"`
	MaxInFlight      int          `json:"max_in_flight"`
	Seed             uint64       `json:"seed"`
	Points           []ShardPoint `json:"points"`
	// SpeedupAt4 is aggregate throughput at N=4 over N=1 (acceptance
	// bar: >= 3).
	SpeedupAt4 float64        `json:"speedup_at_4"`
	Failover   *ShardFailover `json:"failover,omitempty"`
}

// StreamReport is the embedded E-STREAM result: streaming delivery vs the
// batch path on the simulated 10 Mbit/s link. Times are milliseconds so
// the committed JSON diffs readably.
type StreamReport struct {
	Seed         int     `json:"seed"`
	VoiceSeconds float64 `json:"voice_seconds"`
	VoiceBytes   uint64  `json:"voice_bytes"`
	VoiceChunks  int     `json:"voice_chunks"`
	TTFAMs       float64 `json:"ttfa_ms"`
	FullMs       float64 `json:"voice_full_download_ms"`
	// TTFASpeedup is full-download over first-audio (acceptance bar: >= 5).
	TTFASpeedup float64 `json:"ttfa_speedup"`
	Underruns   int     `json:"underruns"`

	ScreenCells      int     `json:"screen_cells"`
	CoarseFrameBytes int64   `json:"coarse_frame_bytes"`
	FullStreamBytes  int64   `json:"full_stream_bytes"`
	BatchFrameBytes  int64   `json:"batch_frame_bytes"`
	ScreenUsableMs   float64 `json:"screen_usable_ms"`
	ScreenFullMs     float64 `json:"screen_full_ms"`
	// UsableRatio is usable over full (acceptance bar: <= 0.5).
	UsableRatio float64 `json:"usable_ratio"`

	FailoverDelivered uint64 `json:"failover_delivered"`
	FailoverResumes   int64  `json:"failover_resumes"`
	FailoverOK        bool   `json:"failover_ok"`

	AllocsPerChunk float64 `json:"allocs_per_chunk"`
}

// GateReport is the embedded E-GATE result: web sessions driven through
// the gateway tier, with the same-scale direct-client run as baseline.
// Latencies are milliseconds so the committed JSON diffs readably.
type GateReport struct {
	Sessions   int     `json:"sessions"`
	DurationMs float64 `json:"duration_ms"`
	PoolSize   int     `json:"pool_size"`
	StepSlots  int     `json:"step_slots"`
	Seed       uint64  `json:"seed"`
	Steps      int64   `json:"steps"`
	Queries    int64   `json:"queries"`
	Browses    int64   `json:"browses"`
	Opens      int64   `json:"opens"`
	Offered    int64   `json:"offered"`
	Sheds      int64   `json:"sheds"`
	Degraded   int64   `json:"degraded"`
	ShedRate   float64 `json:"shed_rate"`
	StepsPerS  float64 `json:"steps_per_s"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
	PNGHitRate float64 `json:"png_hit_rate"`
	Pushes     int64   `json:"pushes"`
	PushBytes  int64   `json:"push_bytes"`
	// DirectP99Ms is the direct-client E-LOAD p99 at the same session
	// count and duration — the 2x acceptance baseline.
	DirectP99Ms float64 `json:"direct_p99_ms"`
}

// IndexReport is the embedded E-INDEX result: the segmented content index
// built serially and in parallel over the synthetic corpus, then queried
// through the planner and the naive evaluator. Latencies are microseconds
// (individual planned queries run well under a millisecond); build times
// are milliseconds.
type IndexReport struct {
	Docs         int    `json:"docs"`
	Queries      int    `json:"queries"`
	Workers      int    `json:"workers"`
	Seed         uint64 `json:"seed"`
	Postings     int    `json:"postings"`
	Segments     int    `json:"segments"`
	SegmentBytes int    `json:"segment_bytes"`

	SerialBuildMs   float64 `json:"serial_build_ms"`
	ParallelBuildMs float64 `json:"parallel_build_ms"`
	Chunks          int     `json:"chunks"`
	// ModelSpeedup is the makespan-model speedup at Workers workers over
	// the measured per-chunk build times (acceptance bar: >= 3 at 4
	// workers); WallSpeedup is the raw wall-clock ratio, which only
	// tracks the model when the container actually has Workers cores.
	ModelSpeedup   float64 `json:"model_speedup"`
	WallSpeedup    float64 `json:"wall_speedup"`
	DocsPerCoreSec float64 `json:"docs_per_core_sec"`
	// Deterministic reports the parallel build produced byte-identical
	// segment files to the serial build (acceptance bar: true).
	Deterministic bool `json:"deterministic"`

	MeanHits     float64 `json:"mean_hits"`
	PlannedP50Us float64 `json:"planned_p50_us"`
	PlannedP99Us float64 `json:"planned_p99_us"`
	NaiveP50Us   float64 `json:"naive_p50_us"`
	NaiveP99Us   float64 `json:"naive_p99_us"`
	// P99Speedup is naive p99 over planned p99 (acceptance bar: >= 5).
	P99Speedup float64 `json:"p99_speedup"`
	// AllocsPerQuery is the marginal heap allocations of one warm planned
	// query (acceptance bar: ~0).
	AllocsPerQuery float64 `json:"allocs_per_query"`
	ResultsMatch   bool    `json:"results_match"`
}

// Report is the written JSON document.
type Report struct {
	GoVersion string        `json:"go_version"`
	Bench     string        `json:"bench"`
	BenchTime string        `json:"benchtime"`
	Results   []Result      `json:"results"`
	Load      *LoadReport   `json:"load,omitempty"`
	Shard     *ShardReport  `json:"shard,omitempty"`
	Stream    *StreamReport `json:"stream,omitempty"`
	Gate      *GateReport   `json:"gate,omitempty"`
	Index     *IndexReport  `json:"e_index,omitempty"`
}

func main() {
	out := flag.String("out", "-", "report file (- = stdout)")
	bench := flag.String("bench", "Rasterize|Miniature|Synthesize|MuxBatched|LocalRoundTrip|VoiceStreamTCP|AppendPCMSamples|EncodePNG|BitmapOr|ScreenRender", "benchmark regex passed to go test")
	benchtime := flag.String("benchtime", "", "go test -benchtime value (empty = default)")
	load := flag.Bool("load", false, "run the E-LOAD mass-session harness and embed its result")
	shard := flag.Bool("shard", false, "run the E-SHARD scaling sweep and embed its result")
	stream := flag.Bool("stream", false, "run the E-STREAM streaming-delivery experiment and embed its result")
	gate := flag.Bool("gate", false, "run the E-GATE gateway-tier experiment and embed its result")
	indexRun := flag.Bool("index", false, "run the E-INDEX content-index experiment and embed its result")
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = defaultPackages
	}

	rep := Report{GoVersion: goVersion(), Bench: *bench, BenchTime: *benchtime}
	if *load {
		lr, err := runLoad()
		if err != nil {
			fmt.Fprintf(os.Stderr, "minos-bench: load: %v\n", err)
			os.Exit(1)
		}
		rep.Load = lr
		fmt.Fprintf(os.Stderr, "minos-bench: E-LOAD %d sessions: steps=%d shed=%.1f%% p99=%.2fms fairness=%.2f\n",
			lr.Sessions, lr.Steps, 100*lr.ShedRate, lr.P99Ms, lr.FairnessRatio)
	}
	if *shard {
		sr, err := runShard()
		if err != nil {
			fmt.Fprintf(os.Stderr, "minos-bench: shard: %v\n", err)
			os.Exit(1)
		}
		rep.Shard = sr
		fmt.Fprintf(os.Stderr, "minos-bench: E-SHARD speedup at N=4: %.2fx; failover steps: %d\n",
			sr.SpeedupAt4, sr.Failover.FailoverSteps)
	}
	if *gate {
		gr, err := runGate()
		if err != nil {
			fmt.Fprintf(os.Stderr, "minos-bench: gate: %v\n", err)
			os.Exit(1)
		}
		rep.Gate = gr
		fmt.Fprintf(os.Stderr, "minos-bench: E-GATE %d sessions: steps=%d (%.0f/s) p99=%.2fms (direct %.2fms) pngHit=%.2f shed=%.1f%%\n",
			gr.Sessions, gr.Steps, gr.StepsPerS, gr.P99Ms, gr.DirectP99Ms, gr.PNGHitRate, 100*gr.ShedRate)
	}
	if *indexRun {
		ir, err := runIndex()
		if err != nil {
			fmt.Fprintf(os.Stderr, "minos-bench: index: %v\n", err)
			os.Exit(1)
		}
		rep.Index = ir
		fmt.Fprintf(os.Stderr, "minos-bench: E-INDEX %d docs: planned p99 %.0fµs vs naive %.0fµs (%.1fx), build model %.2fx@%d, deterministic=%v allocs/query=%.3f\n",
			ir.Docs, ir.PlannedP99Us, ir.NaiveP99Us, ir.P99Speedup, ir.ModelSpeedup, ir.Workers, ir.Deterministic, ir.AllocsPerQuery)
	}
	if *stream {
		st, err := runStream()
		if err != nil {
			fmt.Fprintf(os.Stderr, "minos-bench: stream: %v\n", err)
			os.Exit(1)
		}
		rep.Stream = st
		fmt.Fprintf(os.Stderr, "minos-bench: E-STREAM ttfa speedup %.1fx, screen usable ratio %.2f, failover ok=%v, allocs/chunk=%.3f\n",
			st.TTFASpeedup, st.UsableRatio, st.FailoverOK, st.AllocsPerChunk)
	}
	for _, pkg := range pkgs {
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem"}
		if *benchtime != "" {
			args = append(args, "-benchtime", *benchtime)
		}
		args = append(args, pkg)
		cmd := exec.Command("go", args...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "minos-bench: %s: %v\n", pkg, err)
			os.Exit(1)
		}
		res, err := parseBench(pkg, buf.String())
		if err != nil {
			fmt.Fprintf(os.Stderr, "minos-bench: %s: %v\n", pkg, err)
			os.Exit(1)
		}
		rep.Results = append(rep.Results, res...)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "minos-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "minos-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("minos-bench: %d benchmarks -> %s\n", len(rep.Results), *out)
}

// parseBench extracts benchmark lines of the standard form
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   1 allocs/op
//
// from go test output. Packages whose run matched no benchmark contribute
// nothing (go test prints "no test files" or just PASS).
func parseBench(pkg, out string) ([]Result, error) {
	var res []Result
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		r := Result{Name: name, Package: pkg}
		var err error
		if r.Iterations, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			return nil, fmt.Errorf("bad iteration count in %q", line)
		}
		for i := 2; i+1 < len(f); i++ {
			v := f[i]
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp, err = strconv.ParseFloat(v, 64)
			case "B/op":
				r.BytesPerOp, err = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				r.AllocsPerOp, err = strconv.ParseInt(v, 10, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", v, line)
			}
		}
		res = append(res, r)
	}
	return res, nil
}

// ms reports a duration in (fractional) milliseconds, the unit of every
// modelled time in the report.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runLoad builds the standard E-LOAD corpus and drives one mass-session
// run in-process (the harness is deterministic: same code, same report).
func runLoad() (*LoadReport, error) {
	srv, err := loadgen.BuildCorpus(1<<15, 60, 12)
	if err != nil {
		return nil, err
	}
	res, err := loadgen.Run(srv, loadgen.Config{
		Sessions:    loadSessions,
		Duration:    loadDuration,
		Seed:        runSeed,
		MaxInFlight: loadMaxInFlight,
		HotSessions: loadSessions / 100,
	})
	if err != nil {
		return nil, err
	}
	return &LoadReport{
		Sessions:      res.Sessions,
		DurationMs:    ms(loadDuration),
		MaxInFlight:   loadMaxInFlight,
		Seed:          runSeed,
		Steps:         res.Steps,
		Offered:       res.Offered,
		Sheds:         res.Sheds,
		Degraded:      res.Degraded,
		ShedRate:      res.ShedRate,
		P50Ms:         ms(res.P50),
		P95Ms:         ms(res.P95),
		P99Ms:         ms(res.P99),
		MaxMs:         ms(res.MaxLat),
		FairnessRatio: res.FairnessRatio,
		MinSteps:      res.MinSteps,
		MaxSteps:      res.MaxSteps,
		DevWaits:      res.DevWaits,
	}, nil
}

// runShard sweeps the E-SHARD widths with the identical per-shard
// configuration and a saturating hot population scaled with N, then runs
// the 2-shard replica-failover experiment. Deterministic: same code,
// same report.
func runShard() (*ShardReport, error) {
	sr := &ShardReport{
		SessionsPerShard: shardSessions,
		DurationMs:       ms(shardDuration),
		MaxInFlight:      shardMaxInFlight,
		Seed:             runSeed,
	}
	var base float64
	for _, n := range []int{1, 2, 4, 8} {
		fleet, err := loadgen.BuildFleet(1<<15, 60, 12, n, cluster.DefaultVnodes, false)
		if err != nil {
			return nil, err
		}
		sessions := shardSessions * n
		res, err := loadgen.RunFleet(fleet, loadgen.Config{
			Sessions:    sessions,
			Duration:    shardDuration,
			Seed:        runSeed,
			MaxInFlight: shardMaxInFlight,
			HotSessions: sessions,
		})
		if err != nil {
			return nil, err
		}
		tput := 0.0
		if res.VirtualTime > 0 {
			tput = float64(res.DeviceSteps) / res.VirtualTime.Seconds()
		}
		if n == 1 {
			base = tput
		} else if n == 4 && base > 0 {
			sr.SpeedupAt4 = tput / base
		}
		sr.Points = append(sr.Points, ShardPoint{
			Shards:      n,
			Sessions:    sessions,
			Steps:       res.Steps,
			DeviceSteps: res.DeviceSteps,
			Throughput:  tput,
			P99Ms:       ms(res.P99),
			ShedRate:    res.ShedRate,
		})
		fmt.Fprintf(os.Stderr, "minos-bench: E-SHARD N=%d: deviceSteps=%d throughput=%.0f/s p99=%.2fms\n",
			n, res.DeviceSteps, tput, ms(res.P99))
	}
	// Replica failover: a 2-shard fleet with replicas, shard 0's primary
	// dying at the midpoint.
	fleet, err := loadgen.BuildFleet(1<<15, 60, 12, 2, cluster.DefaultVnodes, true)
	if err != nil {
		return nil, err
	}
	failAt := 15 * time.Second
	res, err := loadgen.RunFleet(fleet, loadgen.Config{
		Sessions:    128,
		Duration:    30 * time.Second,
		Seed:        runSeed,
		MaxInFlight: 32,
		FailShard:   0,
		FailShardAt: failAt,
	})
	if err != nil {
		return nil, err
	}
	sr.Failover = &ShardFailover{
		Shards:        2,
		Sessions:      128,
		FailShard:     0,
		FailAtMs:      ms(failAt),
		Steps:         res.Steps,
		DeviceSteps:   res.DeviceSteps,
		FailoverSteps: res.FailoverSteps,
		P99Ms:         ms(res.P99),
		MinSteps:      res.MinSteps,
	}
	return sr, nil
}

// runGate runs the E-GATE experiment in-process: the gateway-tier run on
// a fresh standard corpus, then the same-scale direct-client E-LOAD run as
// baseline. Deterministic: same code, same report.
func runGate() (*GateReport, error) {
	srv, err := loadgen.BuildCorpus(1<<15, 60, 12)
	if err != nil {
		return nil, err
	}
	res, err := loadgen.RunGate(srv, loadgen.GateConfig{
		Sessions:  gateSessions,
		Duration:  gateDuration,
		Seed:      runSeed,
		StepSlots: gateSlots,
	})
	if err != nil {
		return nil, err
	}
	base, err := loadgen.BuildCorpus(1<<15, 60, 12)
	if err != nil {
		return nil, err
	}
	direct, err := loadgen.Run(base, loadgen.Config{
		Sessions:    gateSessions,
		Duration:    gateDuration,
		Seed:        runSeed,
		MaxInFlight: gateSlots,
	})
	if err != nil {
		return nil, err
	}
	return &GateReport{
		Sessions:    res.Sessions,
		DurationMs:  ms(gateDuration),
		PoolSize:    res.PoolSize,
		StepSlots:   gateSlots,
		Seed:        runSeed,
		Steps:       res.Steps,
		Queries:     res.Queries,
		Browses:     res.Browses,
		Opens:       res.Opens,
		Offered:     res.Offered,
		Sheds:       res.Sheds,
		Degraded:    res.Degraded,
		ShedRate:    res.ShedRate,
		StepsPerS:   res.StepsPerSec,
		P50Ms:       ms(res.P50),
		P95Ms:       ms(res.P95),
		P99Ms:       ms(res.P99),
		MaxMs:       ms(res.MaxLat),
		PNGHitRate:  res.PNGHitRate,
		Pushes:      res.Hub.Pushes,
		PushBytes:   res.Hub.PushBytes,
		DirectP99Ms: ms(direct.P99),
	}, nil
}

// runStream runs the E-STREAM experiment in-process. Deterministic apart
// from the alloc guard, which measures the live heap (and reports exactly
// zero when the steady state allocates nothing).
func runStream() (*StreamReport, error) {
	res, err := loadgen.RunStream(loadgen.StreamConfig{Seed: runSeed})
	if err != nil {
		return nil, err
	}
	return &StreamReport{
		Seed:              runSeed,
		VoiceSeconds:      res.VoiceSeconds,
		VoiceBytes:        res.VoiceBytes,
		VoiceChunks:       res.VoiceChunks,
		TTFAMs:            ms(res.TTFA),
		FullMs:            ms(res.VoiceFullDownload),
		TTFASpeedup:       res.TTFASpeedup,
		Underruns:         res.Underruns,
		ScreenCells:       res.ScreenCells,
		CoarseFrameBytes:  res.CoarseFrameBytes,
		FullStreamBytes:   res.FullStreamBytes,
		BatchFrameBytes:   res.BatchFrameBytes,
		ScreenUsableMs:    ms(res.ScreenUsable),
		ScreenFullMs:      ms(res.ScreenFull),
		UsableRatio:       res.UsableRatio,
		FailoverDelivered: res.FailoverDelivered,
		FailoverResumes:   res.FailoverResumes,
		FailoverOK:        res.FailoverOK,
		AllocsPerChunk:    res.AllocsPerChunk,
	}, nil
}

// runIndex runs the E-INDEX experiment in-process: serial vs parallel
// segment builds over the synthetic corpus, the bit-identity check between
// them, and the planned-vs-naive query battery.
func runIndex() (*IndexReport, error) {
	res, err := loadgen.RunIndex(loadgen.IndexConfig{
		Docs:    indexDocs,
		Queries: indexQueries,
		Workers: indexWorkers,
		Seed:    runSeed,
	})
	if err != nil {
		return nil, err
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return &IndexReport{
		Docs:            res.Docs,
		Queries:         res.Queries,
		Workers:         res.Workers,
		Seed:            runSeed,
		Postings:        res.Postings,
		Segments:        res.Segments,
		SegmentBytes:    res.SegmentBytes,
		SerialBuildMs:   ms(res.SerialBuild),
		ParallelBuildMs: ms(res.ParallelBuild),
		Chunks:          res.Chunks,
		ModelSpeedup:    res.ModelSpeedup,
		WallSpeedup:     res.WallSpeedup,
		DocsPerCoreSec:  res.DocsPerCoreSec,
		Deterministic:   res.Deterministic,
		MeanHits:        res.MeanHits,
		PlannedP50Us:    us(res.PlannedP50),
		PlannedP99Us:    us(res.PlannedP99),
		NaiveP50Us:      us(res.NaiveP50),
		NaiveP99Us:      us(res.NaiveP99),
		P99Speedup:      res.P99Speedup,
		AllocsPerQuery:  res.AllocsPerQuery,
		ResultsMatch:    res.ResultsMatch,
	}, nil
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
