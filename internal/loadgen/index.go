// E-INDEX: the segmented-content-index experiment. One run builds the
// synthetic corpus twice (serial, then parallel over the configured worker
// count), proves the segment files bit-identical across worker counts,
// then drives the query battery through the planner and the naive
// evaluator and reports the latency percentiles side by side.
//
// The container running the committed reports may expose a single CPU, so
// the parallel-build speedup is reported two ways: the real wall-clock
// ratio (meaningless on one core) and a makespan model over the measured
// per-chunk build times — chunks are independent, so W workers complete
// them in the next-available schedule's makespan. The model consumes only
// measured durations; it contains no synthetic service times.
package loadgen

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"minos/internal/demo"
	"minos/internal/index"
)

// IndexConfig parameterizes one E-INDEX run.
type IndexConfig struct {
	// Docs is the corpus size (default 1,000,000).
	Docs int
	// Queries is the size of the selective-conjunction battery (default 200).
	Queries int
	// Workers is the parallel build width measured against serial
	// (default 4).
	Workers int
	// Seed derives the corpus and the query battery (default 1986).
	Seed uint64
}

func (c IndexConfig) withDefaults() IndexConfig {
	if c.Docs <= 0 {
		c.Docs = 1_000_000
	}
	if c.Queries <= 0 {
		c.Queries = 200
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Seed == 0 {
		c.Seed = 1986
	}
	return c
}

// IndexResult is one E-INDEX run's measurements.
type IndexResult struct {
	Docs         int
	Postings     int
	Segments     int
	SegmentBytes int

	// Build timings. SerialBuild/ParallelBuild are real wall clock;
	// ModelSpeedup is the measured-chunk makespan model at Workers workers
	// (the scaling claim on a one-core container); WallSpeedup is the raw
	// wall ratio. DocsPerCoreSec is serial build throughput.
	SerialBuild    time.Duration
	ParallelBuild  time.Duration
	Workers        int
	Chunks         int
	ModelSpeedup   float64
	WallSpeedup    float64
	DocsPerCoreSec float64
	// Deterministic reports the parallel build's segment files byte-equal
	// to the serial build's.
	Deterministic bool

	// Query battery.
	Queries                int
	MeanHits               float64
	PlannedP50, PlannedP99 time.Duration
	NaiveP50, NaiveP99     time.Duration
	// P99Speedup is naive p99 over planned p99 (acceptance bar: >= 5).
	P99Speedup float64
	// AllocsPerQuery is the marginal heap allocations of one warm planned
	// query (acceptance bar: 0).
	AllocsPerQuery float64
	// ResultsMatch reports planner and naive evaluator returned identical
	// id sets for every query in the battery.
	ResultsMatch bool
}

// RunIndex executes one E-INDEX run. Deterministic apart from the wall
// timings: same config, same corpus, same segment bytes, same result sets.
func RunIndex(cfg IndexConfig) (IndexResult, error) {
	cfg = cfg.withDefaults()
	res := IndexResult{Docs: cfg.Docs, Workers: cfg.Workers, Queries: cfg.Queries}
	gen := func(i int, d *index.Doc) { demo.SynthDoc(cfg.Seed, i, d) }
	icfg := index.Config{}

	start := time.Now()
	serialSegs, serialStats, err := index.BuildSegments(cfg.Docs, gen, icfg, 1)
	if err != nil {
		return res, err
	}
	res.SerialBuild = time.Since(start)
	res.Postings = serialStats.Postings
	res.Segments = serialStats.Segments
	res.SegmentBytes = serialStats.Bytes
	res.Chunks = len(serialStats.ChunkNs)
	if s := res.SerialBuild.Seconds(); s > 0 {
		res.DocsPerCoreSec = float64(cfg.Docs) / s
	}

	start = time.Now()
	store, _, err := index.BuildStore(cfg.Docs, gen, icfg, cfg.Workers)
	if err != nil {
		return res, err
	}
	res.ParallelBuild = time.Since(start)
	if res.ParallelBuild > 0 {
		res.WallSpeedup = res.SerialBuild.Seconds() / res.ParallelBuild.Seconds()
	}
	res.Deterministic = segmentsEqual(serialSegs, store.Segments())
	res.ModelSpeedup = makespanSpeedup(serialStats.ChunkNs, cfg.Workers)

	var planned, naive []time.Duration
	var hits int64
	match := true
	for k := 0; k < cfg.Queries; k++ {
		q := demo.SynthQuery(cfg.Seed, k, cfg.Docs)
		t0 := time.Now()
		got := store.Search(q, nil)
		planned = append(planned, time.Since(t0))
		t0 = time.Now()
		want := store.SearchNaive(q)
		naive = append(naive, time.Since(t0))
		hits += int64(len(got))
		if len(got) != len(want) {
			match = false
		} else {
			for i := range got {
				if got[i] != want[i] {
					match = false
					break
				}
			}
		}
	}
	res.ResultsMatch = match
	res.MeanHits = float64(hits) / float64(cfg.Queries)
	planned, naive = sortedDurations(planned), sortedDurations(naive)
	res.PlannedP50, res.PlannedP99 = percentile(planned, 0.50), percentile(planned, 0.99)
	res.NaiveP50, res.NaiveP99 = percentile(naive, 0.50), percentile(naive, 0.99)
	if res.PlannedP99 > 0 {
		res.P99Speedup = float64(res.NaiveP99) / float64(res.PlannedP99)
	}

	allocs, err := indexAllocsPerQuery(store, cfg)
	if err != nil {
		return res, err
	}
	res.AllocsPerQuery = allocs
	return res, nil
}

// segmentsEqual compares two segment sets byte for byte.
func segmentsEqual(a, b []*index.Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Bytes(), b[i].Bytes()) {
			return false
		}
	}
	return true
}

// makespanSpeedup computes the W-worker speedup implied by the measured
// per-chunk build times under next-available scheduling: each chunk goes to
// the worker that frees up first (the same discipline BuildSegments' job
// channel realizes), and the speedup is serial total over parallel
// makespan.
func makespanSpeedup(chunkNs []int64, workers int) float64 {
	if len(chunkNs) == 0 || workers <= 0 {
		return 0
	}
	var total int64
	free := make([]int64, workers)
	for _, ns := range chunkNs {
		total += ns
		best := 0
		for w := 1; w < workers; w++ {
			if free[w] < free[best] {
				best = w
			}
		}
		free[best] += ns
	}
	var makespan int64
	for _, f := range free {
		if f > makespan {
			makespan = f
		}
	}
	if makespan == 0 {
		return 0
	}
	return float64(total) / float64(makespan)
}

// indexAllocsPerQuery measures the heap allocations of one warm planned
// query (reused result buffer, warm searcher pool) the same way the stream
// alloc guard does: a testing.AllocsPerRun average.
func indexAllocsPerQuery(store *index.Store, cfg IndexConfig) (float64, error) {
	q := demo.SynthQuery(cfg.Seed, 0, cfg.Docs)
	out := store.Search(q, nil) // size the result buffer
	allocs := testing.AllocsPerRun(200, func() { out = store.Search(q, out[:0]) })
	if len(out) == 0 && cfg.Docs > 0 {
		return 0, fmt.Errorf("loadgen: alloc-guard query matched nothing")
	}
	return allocs, nil
}
