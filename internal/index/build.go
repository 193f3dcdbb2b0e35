package index

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// BuildStats summarizes a bulk build.
type BuildStats struct {
	Docs     int
	Postings int
	Segments int
	Bytes    int // total sealed segment bytes
	// ChunkNs records each chunk's build+seal wall time in chunk order —
	// chunks are independent, so these feed the multi-worker makespan
	// model in the E-INDEX experiment.
	ChunkNs []int64
}

// BuildSegments builds the segment set for n synthetic docs in parallel.
// gen must fill d (re-using d.Terms' backing array) with the content of
// doc i, as a pure function of i — it is called concurrently from every
// worker. Docs are chunked by position into memtable-sized segments, so
// the output depends only on (gen, cfg), never on worker count or
// scheduling: segment k always covers docs [k*MemtableDocs, ...), and its
// file is bit-identical across runs and across worker counts.
//
// Ids produced by gen must be unique; each worker owns a reusable builder
// over pooled storage, so the steady-state per-doc cost allocates nothing
// (the tokenize/post path is alloc-guarded by TestAllocBuilderAdd).
func BuildSegments(n int, gen func(i int, d *Doc), cfg Config, workers int) ([]*Segment, BuildStats, error) {
	cfg = cfg.withDefaults()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunkSize := cfg.MemtableDocs
	chunks := (n + chunkSize - 1) / chunkSize
	segs := make([]*Segment, chunks)
	stats := BuildStats{Docs: n, Segments: chunks, ChunkNs: make([]int64, chunks)}
	if chunks == 0 {
		return segs, stats, nil
	}
	if workers > chunks {
		workers = chunks
	}
	// Pre-filled buffered channel: a worker bailing on error never leaves
	// the producer blocked.
	jobs := make(chan int, chunks)
	for ck := 0; ck < chunks; ck++ {
		jobs <- ck
	}
	close(jobs)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newBuilder()
			var d Doc
			for ck := range jobs {
				start := time.Now()
				b.reset()
				lo := ck * chunkSize
				hi := lo + chunkSize
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					gen(i, &d)
					if !b.add(&d) {
						errs <- fmt.Errorf("index: duplicate doc id %d in bulk build", d.ID)
						return
					}
				}
				seg, err := ParseSegment(b.seal())
				if err != nil {
					errs <- fmt.Errorf("index: bulk-built segment %d invalid: %w", ck, err)
					return
				}
				segs[ck] = seg
				stats.ChunkNs[ck] = time.Since(start).Nanoseconds()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, BuildStats{}, err
	default:
	}
	for _, g := range segs {
		stats.Postings += g.Postings()
		stats.Bytes += len(g.Bytes())
	}
	return segs, stats, nil
}

// BuildStore is BuildSegments wrapped into a queryable Store.
func BuildStore(n int, gen func(i int, d *Doc), cfg Config, workers int) (*Store, BuildStats, error) {
	segs, stats, err := BuildSegments(n, gen, cfg, workers)
	if err != nil {
		return nil, BuildStats{}, err
	}
	return newStoreFromSegments(cfg.withDefaults(), segs), stats, nil
}
