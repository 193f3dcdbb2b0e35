package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"minos/internal/object"
	"minos/internal/pool"
)

// refQuery brute-forces the expected result over the generator.
func refQuery(n int, q Query) []object.ID {
	var out []object.ID
	var d Doc
	for i := 0; i < n; i++ {
		testDoc(i, &d)
		if !q.matchAttrs(d.Mode, d.Date) {
			continue
		}
		all := true
		for _, tok := range q.Terms {
			found := false
			for _, dt := range d.Terms {
				if dt == tok {
					found = true
					break
				}
			}
			if !found {
				all = false
				break
			}
		}
		if all && !q.empty() {
			out = append(out, d.ID)
		}
	}
	return out
}

func eqIDs(a, b []object.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var storeQueries = []Query{
	{Terms: []string{"alpha"}},
	{Terms: []string{"even", "alpha"}},
	{Terms: []string{"rareterm"}},
	{Terms: []string{"rareterm", "even"}},
	{Terms: []string{"w001", "w002"}},
	{Terms: []string{"alpha", "w003", "w004"}},
	{Terms: []string{"nosuchterm", "alpha"}},
	{Terms: []string{"alpha"}, Kind: KindAudio},
	{Terms: []string{"even"}, Kind: KindVisual, DateFrom: 2000*416 + 32 + 100},
	{Terms: []string{"alpha"}, DateFrom: 2000*416 + 32 + 200, DateTo: 2000*416 + 32 + 700},
	{Kind: KindAudio},
	{DateFrom: 2000*416 + 32 + 1, DateTo: 2000*416 + 32 + 50},
	{},
}

// TestStoreSealAndQuery drives the store through several seals and checks
// planned search, naive search and the brute-force reference agree on a
// battery of term/attribute queries — including with a part-full memtable.
func TestStoreSealAndQuery(t *testing.T) {
	const n = 1100
	s := NewStore(Config{MemtableDocs: 128, MergeFanIn: 1 << 30}) // no merges here
	var d Doc
	for i := 0; i < n; i++ {
		testDoc(i, &d)
		if !s.Add(&d) {
			t.Fatalf("Add(%d) rejected", i)
		}
	}
	if st := s.Stats(); st.Docs != n || st.Segments == 0 {
		t.Fatalf("stats = %+v, want %d docs over >0 segments", st, n)
	}
	for qi, q := range storeQueries {
		want := refQuery(n, q)
		got := s.Search(q, nil)
		if !eqIDs(got, want) {
			t.Fatalf("query %d (%+v): got %d ids, want %d\n got=%v\nwant=%v", qi, q, len(got), len(want), got, want)
		}
		naive := s.SearchNaive(q)
		if !eqIDs(naive, want) {
			t.Fatalf("query %d (%+v): naive got %d ids, want %d", qi, q, len(naive), len(want))
		}
	}
}

// TestStoreDuplicateAdd verifies the duplicate-add no-op across the
// memtable and sealed segments.
func TestStoreDuplicateAdd(t *testing.T) {
	s := NewStore(Config{MemtableDocs: 8})
	var d Doc
	testDoc(1, &d)
	if !s.Add(&d) {
		t.Fatal("first add rejected")
	}
	testDoc(1, &d)
	if s.Add(&d) {
		t.Fatal("duplicate accepted in memtable")
	}
	s.Seal()
	testDoc(1, &d)
	if s.Add(&d) {
		t.Fatal("duplicate accepted after seal")
	}
}

// TestSearchMemtableLargeUnsorted fills the memtable to one short of its
// seal bound with ids arriving out of order; results that cover most of it
// must still come back ascending and equal to the reference evaluation.
func TestSearchMemtableLargeUnsorted(t *testing.T) {
	const n = 4095
	descending := make([]int, n)
	for i := range descending {
		descending[i] = n - 1 - i
	}
	for name, order := range map[string][]int{
		"descending": descending,
		"shuffled":   rand.New(rand.NewSource(7)).Perm(n),
	} {
		s := memtableStore(t, order)
		for _, q := range []Query{{Kind: KindVisual}, {Terms: []string{"alpha"}}} {
			got := s.Search(q, nil)
			if !slices.IsSorted(got) {
				t.Fatalf("%s %+v: result not ascending", name, q)
			}
			if want := s.SearchNaive(q); !slices.Equal(got, want) || len(got) < n/2 {
				t.Fatalf("%s %+v: got %d ids, naive %d", name, q, len(got), len(want))
			}
		}
	}
}

// TestStoreMergeCompacts forces background merges and checks the segment
// count drops while every query's results are unchanged.
func TestStoreMergeCompacts(t *testing.T) {
	const n = 1100
	s := NewStore(Config{MemtableDocs: 64, MergeFanIn: 4})
	var d Doc
	for i := 0; i < n; i++ {
		testDoc(i, &d)
		s.Add(&d)
	}
	s.WaitMerges()
	st := s.Stats()
	if st.Merges == 0 {
		t.Fatalf("no merges ran: %+v", st)
	}
	if st.Segments >= int(st.Sealed) {
		t.Fatalf("merge did not compact: %+v", st)
	}
	if st.Docs != n {
		t.Fatalf("docs = %d after merge, want %d", st.Docs, n)
	}
	for qi, q := range storeQueries {
		want := refQuery(n, q)
		if got := s.Search(q, nil); !eqIDs(got, want) {
			t.Fatalf("query %d after merge: got %d ids, want %d", qi, len(got), len(want))
		}
	}
}

// TestStoreMergeUnderConcurrentQuery publishes continuously (forcing seals
// and background merges) while query goroutines hammer the store: results
// must always be well-formed (ascending, unique) and must include every
// doc whose publish completed before the query started. Run under -race
// this is the merge-vs-query safety proof.
func TestStoreMergeUnderConcurrentQuery(t *testing.T) {
	const n = 3000
	s := NewStore(Config{MemtableDocs: 32, MergeFanIn: 3})
	var published atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]object.ID, 0, 4096)
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := published.Load()
				dst = s.Search(Query{Terms: []string{"alpha"}}, dst[:0])
				if int64(len(dst)) < floor {
					t.Errorf("query saw %d docs, %d were published", len(dst), floor)
					return
				}
				for i := 1; i < len(dst); i++ {
					if dst[i] <= dst[i-1] {
						t.Errorf("result not strictly ascending at %d", i)
						return
					}
				}
			}
		}()
	}
	var d Doc
	for i := 0; i < n; i++ {
		testDoc(i, &d)
		if s.Add(&d) {
			published.Add(1)
		}
	}
	close(stop)
	wg.Wait()
	s.WaitMerges()
	want := refQuery(n, Query{Terms: []string{"alpha"}})
	if got := s.Search(Query{Terms: []string{"alpha"}}, nil); !eqIDs(got, want) {
		t.Fatalf("final result %d ids, want %d", len(got), len(want))
	}
}

// TestBuildSegmentsParallelDeterministic bulk-builds the same corpus at
// several worker counts: the segment files must be byte-identical, and
// queries over the built store must match the incremental store.
func TestBuildSegmentsParallelDeterministic(t *testing.T) {
	const n = 1000
	cfg := Config{MemtableDocs: 128}
	segs1, st1, err := BuildSegments(n, testDoc, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		segsN, stN, err := BuildSegments(n, testDoc, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(segsN) != len(segs1) {
			t.Fatalf("workers=%d: %d segments, want %d", workers, len(segsN), len(segs1))
		}
		for i := range segs1 {
			if string(segs1[i].Bytes()) != string(segsN[i].Bytes()) {
				t.Fatalf("workers=%d: segment %d bytes differ", workers, i)
			}
		}
		if stN.Postings != st1.Postings || stN.Docs != st1.Docs {
			t.Fatalf("workers=%d: stats %+v vs %+v", workers, stN, st1)
		}
	}
	store, _, err := BuildStore(n, testDoc, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range storeQueries {
		want := refQuery(n, q)
		if got := store.Search(q, nil); !eqIDs(got, want) {
			t.Fatalf("bulk store query %d: got %d ids, want %d", qi, len(got), len(want))
		}
	}
}

// TestBuildSegmentsDuplicateID surfaces generator bugs instead of sealing
// a corrupt segment.
func TestBuildSegmentsDuplicateID(t *testing.T) {
	gen := func(i int, d *Doc) {
		testDoc(0, d) // same id every time
	}
	if _, _, err := BuildSegments(300, gen, Config{MemtableDocs: 64}, 2); err == nil {
		t.Fatal("duplicate ids not rejected")
	}
}

// TestAllocBuilderAdd guards the hot tokenize/post path of the parallel
// build and the publish memtable: adding a doc to a warm builder must not
// allocate.
func TestAllocBuilderAdd(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("alloc guards are skipped under the race detector")
	}
	b := newBuilder(Config{}.withDefaults())
	docs := make([]Doc, 256)
	for i := range docs {
		testDoc(i, &docs[i])
		docs[i].Terms = append([]string(nil), docs[i].Terms...)
	}
	for pass := 0; pass < 2; pass++ { // warm maps and slices
		b.reset()
		for i := range docs {
			b.add(&docs[i])
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		b.reset()
		for i := range docs {
			b.add(&docs[i])
		}
	})
	if avg > 0 {
		t.Fatalf("warm builder pass allocates %.1f objects for %d docs, want 0", avg, len(docs))
	}
}

// TestAllocSearchWarm guards the warm posting-intersection path: a planned
// query over sealed segments with a warm searcher and a capacious dst must
// allocate nothing.
func TestAllocSearchWarm(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	store, _, err := BuildStore(2000, testDoc, Config{MemtableDocs: 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{Terms: []string{"rareterm", "even", "alpha"}},
		{Terms: []string{"w001", "w002"}},
		{Terms: []string{"even", "alpha"}, Kind: KindAudio},
	}
	dst := make([]object.ID, 0, 4096)
	for i := 0; i < 4; i++ { // warm the searcher pool and scratch
		for _, q := range queries {
			dst = store.Search(q, dst[:0])
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, q := range queries {
			dst = store.Search(q, dst[:0])
		}
	})
	if avg > 0 {
		t.Fatalf("warm Search allocates %.2f objects/run, want 0", avg)
	}
}

// TestAllocSearchNilDstOnce: a nil dst — Server.QueryPlanned's — is grown
// once, to the merge's upper bound, not an append at a time, however many
// sources the k-way merge reads.
func TestAllocSearchNilDstOnce(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	store, _, err := BuildStore(2000, testDoc, Config{MemtableDocs: 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var d Doc
	for i := 2000; i < 2100; i++ {
		testDoc(i, &d)
		store.Add(&d)
	}
	if st := store.Stats(); st.Segments < 2 || st.Docs != 2100 {
		t.Fatalf("store shape %+v, want >= 2 segments and a non-empty memtable", st)
	}
	q := Query{Terms: []string{"alpha"}} // every doc: a run from every source
	if got := store.Search(q, nil); len(got) != 2100 {
		t.Fatalf("Search = %d ids, want 2100", len(got))
	}
	avg := testing.AllocsPerRun(20, func() {
		_ = store.Search(q, nil)
	})
	if avg != 1 {
		t.Fatalf("Search with a nil dst allocates %.2f objects/run, want exactly 1", avg)
	}
}

// TestMergeSegmentsPreservesSignatures checks merged segments still serve
// the signature strategy (rows are copied, not recomputed).
func TestMergeSegmentsPreservesSignatures(t *testing.T) {
	cfg := Config{MemtableDocs: 64}.withDefaults()
	segsA, _, err := BuildSegments(300, testDoc, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob := mergeSegments(segsA, cfg)
	merged, err := ParseSegment(blob)
	if err != nil {
		t.Fatalf("merged segment invalid: %v", err)
	}
	if merged.Docs() != 300 {
		t.Fatalf("merged docs = %d", merged.Docs())
	}
	// Each doc's signature row must equal the row in its source segment.
	for _, g := range segsA {
		for i, id := range g.ids {
			mo := ordOf(merged, id)
			a := g.sigs[i*g.sigWords : (i+1)*g.sigWords]
			b := merged.sigs[int(mo)*merged.sigWords : (int(mo)+1)*merged.sigWords]
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("doc %d signature differs after merge", id)
				}
			}
		}
	}
	// And merging is deterministic.
	if string(mergeSegments(segsA, cfg)) != string(blob) {
		t.Fatal("merge not deterministic")
	}
}

func BenchmarkSearchPlanned(b *testing.B) {
	store, _, err := BuildStore(20000, testDoc, Config{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := Query{Terms: []string{"rareterm", "even", "alpha"}}
	dst := make([]object.ID, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = store.Search(q, dst[:0])
	}
}

func BenchmarkSearchNaive(b *testing.B) {
	store, _, err := BuildStore(20000, testDoc, Config{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := Query{Terms: []string{"rareterm", "even", "alpha"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = store.SearchNaive(q)
	}
}

var _ = fmt.Sprintf // keep fmt for debug helpers
