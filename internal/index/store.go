// Package index implements the server subsystem's content access method
// (§5): one segmented index over the words of object text parts, their
// titles and attributes, and the recognized utterances of object voice
// parts. "The recognized voice segments are used to provide content
// addressibility and browsing by using the same access methods as in text"
// (§2) — DocFromObject reduces both media to one term space, which is what
// makes content retrieval symmetric.
//
// Store is the only index: a memtable sealing into immutable segments
// (segment.go) of doc tables and skip-blocked postings. Queries (Query)
// are AND over terms combined with mode and date predicates; per segment
// the query's shape picks the strategy (planner.go), and terms are always
// answered one way — posting intersection, rarest term first.
// Searching inside one object — pattern browsing — needs no index and lives
// with the media: text.NextPhrase and voice.NextUtterance.
package index

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"minos/internal/object"
)

// Store is the segmented content index (DESIGN.md §12): docs accumulate in
// a bounded mutable memtable that seals into immutable sorted segments; a
// background merge compacts small segments. Queries are lock-free over an
// epoch-swapped immutable snapshot of the sealed segments (plus a short
// read-lock on the memtable), so they never serialize with publishes or
// with each other — and never block on a merge.
type Store struct {
	cfg Config

	// mu serializes writers: Add, seal and merge swap-in.
	mu sync.Mutex
	// memMu guards the memtable against concurrent readers; writers hold
	// both (mu first).
	memMu sync.RWMutex
	mem   *builder

	// snap is the immutable sealed-segment snapshot. Readers Load it once
	// and work off that epoch; writers install a fresh snapshot with a
	// bumped generation under mu.
	snap atomic.Pointer[snapshot]
	gen  uint64 // guarded by mu

	merging   atomic.Bool
	mergeWG   sync.WaitGroup
	sealedCnt atomic.Int64
	mergeCnt  atomic.Int64

	searchers sync.Pool
}

type snapshot struct {
	segs []*Segment
	gen  uint64
}

// NewStore builds an empty store.
func NewStore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, mem: newBuilder()}
	s.snap.Store(&snapshot{})
	s.searchers.New = func() any { return &searcher{} }
	return s
}

// newStoreFromSegments wraps pre-built segments (the parallel bulk build).
func newStoreFromSegments(cfg Config, segs []*Segment) *Store {
	s := NewStore(cfg)
	s.gen = 1
	s.snap.Store(&snapshot{segs: segs, gen: 1})
	s.sealedCnt.Store(int64(len(segs)))
	return s
}

// Add indexes one doc, sealing the memtable into a segment when it reaches
// the configured bound. It reports false (and changes nothing) when the id
// is already indexed. The caller keeps ownership of d.
func (s *Store) Add(d *Doc) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.snap.Load().segs {
		if g.contains(d.ID) {
			return false
		}
	}
	s.memMu.Lock()
	ok := s.mem.add(d)
	s.memMu.Unlock()
	if ok && s.mem.docs() >= s.cfg.MemtableDocs {
		s.sealLocked()
	}
	return ok
}

// AddObject is Add over the object adapter.
func (s *Store) AddObject(o *object.Object) bool {
	var d Doc
	DocFromObject(o, &d)
	return s.Add(&d)
}

// Seal forces the current memtable into a segment (tests and shutdown).
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealLocked()
}

// sealLocked encodes the memtable, installs the new segment in a fresh
// snapshot, and only then resets the memtable — a query racing the seal
// may see a doc in both (the result merge deduplicates), never in neither.
func (s *Store) sealLocked() {
	if s.mem.docs() == 0 {
		return
	}
	blob := s.mem.seal()
	seg, err := ParseSegment(blob)
	if err != nil {
		panic(fmt.Sprintf("index: sealed segment failed validation: %v", err))
	}
	cur := s.snap.Load()
	segs := make([]*Segment, 0, len(cur.segs)+1)
	segs = append(segs, cur.segs...)
	segs = append(segs, seg)
	s.gen++
	s.snap.Store(&snapshot{segs: segs, gen: s.gen})
	s.sealedCnt.Add(1)
	s.memMu.Lock()
	s.mem.reset()
	s.memMu.Unlock()
	s.maybeMergeLocked()
}

// maybeMergeLocked kicks the background merge when enough small segments
// have piled up. At most one merge runs at a time.
func (s *Store) maybeMergeLocked() {
	small := 0
	for _, g := range s.snap.Load().segs {
		if g.Docs() < 2*s.cfg.MemtableDocs {
			small++
		}
	}
	if small < s.cfg.MergeFanIn {
		return
	}
	if s.merging.Swap(true) {
		return
	}
	s.mergeWG.Add(1)
	go func() {
		defer s.mergeWG.Done()
		defer s.merging.Store(false)
		for s.mergeOnce() {
		}
	}()
}

// WaitMerges blocks until no background merge is running (tests and the
// deterministic bulk paths).
func (s *Store) WaitMerges() { s.mergeWG.Wait() }

// mergeOnce compacts one run of small segments. The merge works off a
// snapshot without holding any lock; the swap-in is generation-checked
// under mu: if the world moved (a seal appended a segment), the picked
// segments are re-located by identity — sealed segments never change, so
// the merged replacement stays valid no matter how many seals interleaved.
func (s *Store) mergeOnce() bool {
	snap := s.snap.Load()
	var pick []*Segment
	for _, g := range snap.segs {
		if g.Docs() < 2*s.cfg.MemtableDocs {
			pick = append(pick, g)
			if len(pick) == 2*s.cfg.MergeFanIn {
				break
			}
		}
	}
	if len(pick) < 2 {
		return false
	}
	blob := mergeSegments(pick)
	merged, err := ParseSegment(blob)
	if err != nil {
		panic(fmt.Sprintf("index: merged segment failed validation: %v", err))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	picked := make(map[*Segment]bool, len(pick))
	for _, g := range pick {
		picked[g] = true
	}
	segs := make([]*Segment, 0, len(cur.segs))
	replaced := 0
	for _, g := range cur.segs {
		if picked[g] {
			if replaced == 0 {
				segs = append(segs, merged)
			}
			replaced++
			continue
		}
		segs = append(segs, g)
	}
	if replaced != len(pick) {
		// A concurrent writer removed one of our inputs (cannot happen
		// today — only the single merger removes segments — but the
		// generation check keeps the swap-in safe if that ever changes).
		return true
	}
	s.gen++
	s.snap.Store(&snapshot{segs: segs, gen: s.gen})
	s.mergeCnt.Add(1)
	return true
}

// mergeSegments combines sealed segments into one segment file. Doc sets
// are disjoint (Add enforces it), doc tables and dictionaries are sorted,
// so this is a pure k-way merge; per-segment ordinal remaps are monotonic,
// which keeps every merged posting list a k-way merge of ascending runs.
func mergeSegments(segs []*Segment) []byte {
	total := 0
	for _, g := range segs {
		total += g.Docs()
	}
	parts := segParts{
		ids:   make([]object.ID, 0, total),
		modes: make([]object.Mode, 0, total),
		dates: make([]uint32, 0, total),
	}
	// Merge doc tables by id, building per-segment ordinal remaps.
	remap := make([][]uint32, len(segs))
	heads := make([]int, len(segs))
	for i, g := range segs {
		remap[i] = make([]uint32, g.Docs())
	}
	for {
		best := -1
		for i, g := range segs {
			if heads[i] >= g.Docs() {
				continue
			}
			if best == -1 || g.ids[heads[i]] < segs[best].ids[heads[best]] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		g, h := segs[best], heads[best]
		remap[best][h] = uint32(len(parts.ids))
		parts.ids = append(parts.ids, g.ids[h])
		parts.modes = append(parts.modes, g.modes[h])
		parts.dates = append(parts.dates, g.dates[h])
		heads[best]++
	}
	// Merge dictionaries by term bytes.
	ti := make([]int, len(segs))
	its := make([]postingIter, len(segs))
	for {
		var name []byte
		for i, g := range segs {
			if ti[i] >= len(g.terms) {
				continue
			}
			n := g.name(&g.terms[ti[i]])
			if name == nil || bytes.Compare(n, name) < 0 {
				name = n
			}
		}
		if name == nil {
			break
		}
		count := 0
		for i, g := range segs {
			if ti[i] < len(g.terms) && bytes.Compare(g.name(&g.terms[ti[i]]), name) == 0 {
				count += int(g.terms[ti[i]].count)
			}
		}
		ords := make([]uint32, 0, count)
		// k-way merge of the (remapped, ascending) per-segment runs.
		nRuns := 0
		runSeg := make([]int, 0, len(segs))
		for i, g := range segs {
			if ti[i] < len(g.terms) && bytes.Compare(g.name(&g.terms[ti[i]]), name) == 0 {
				its[nRuns].reset(g, &g.terms[ti[i]])
				runSeg = append(runSeg, i)
				nRuns++
			}
		}
		cur := make([]uint32, nRuns)
		live := make([]bool, nRuns)
		for r := 0; r < nRuns; r++ {
			v, ok := its[r].next()
			cur[r], live[r] = v, ok
		}
		for {
			best := -1
			for r := 0; r < nRuns; r++ {
				if !live[r] {
					continue
				}
				if best == -1 || remap[runSeg[r]][cur[r]] < remap[runSeg[best]][cur[best]] {
					best = r
				}
			}
			if best == -1 {
				break
			}
			ords = append(ords, remap[runSeg[best]][cur[best]])
			v, ok := its[best].next()
			cur[best], live[best] = v, ok
		}
		nameCopy := append([]byte(nil), name...)
		parts.terms = append(parts.terms, partTerm{name: nameCopy, ords: ords})
		for i, g := range segs {
			if ti[i] < len(g.terms) && bytes.Compare(g.name(&g.terms[ti[i]]), nameCopy) == 0 {
				ti[i]++
			}
		}
	}
	return encodeParts(&parts)
}

// StoreStats is a point-in-time summary.
type StoreStats struct {
	Docs     int // sealed + memtable
	Segments int
	Postings int // sealed postings
	Sealed   int64
	Merges   int64
}

// Stats reports the store's current shape.
func (s *Store) Stats() StoreStats {
	st := StoreStats{Sealed: s.sealedCnt.Load(), Merges: s.mergeCnt.Load()}
	snap := s.snap.Load()
	st.Segments = len(snap.segs)
	for _, g := range snap.segs {
		st.Docs += g.Docs()
		st.Postings += g.Postings()
	}
	s.memMu.RLock()
	st.Docs += s.mem.docs()
	s.memMu.RUnlock()
	return st
}

// Segments returns the current sealed-segment snapshot (the slice is a
// copy; the segments themselves are immutable and shared).
func (s *Store) Segments() []*Segment {
	snap := s.snap.Load()
	return append([]*Segment(nil), snap.segs...)
}

// Generation returns the snapshot epoch (bumped by every seal and merge).
func (s *Store) Generation() uint64 { return s.snap.Load().gen }

// searcher carries the per-query scratch that makes the warm planned-query
// path allocation-free; Search draws one from the store's pool.
type searcher struct {
	terms []*termEntry
	iters []postingIter

	arena  []object.ID
	bounds []int
	lists  [][]object.ID
	heads  []int

	norm []string
	memQ []object.ID
}

// normalize rewrites q.Terms into normalized tokens using the searcher's
// scratch. Tokens that are already normalized (the common case — every
// wire client normalizes at parse time) are passed through without
// allocating.
func (sc *searcher) normalize(q *Query) {
	sc.norm = sc.norm[:0]
	for _, t := range q.Terms {
		t = normalizeIfNeeded(t)
		if t != "" {
			sc.norm = append(sc.norm, t)
		}
	}
	q.Terms = sc.norm
}

// Search evaluates the query and appends matching ids (ascending, no
// duplicates) to dst. An empty query with no filters matches nothing.
// Queries are lock-free over the sealed snapshot; only the memtable probe
// takes a short read lock. With a warm searcher and a capacious dst the
// call allocates nothing (TestAllocSearchWarm).
func (s *Store) Search(q Query, dst []object.ID) []object.ID {
	sc := s.searchers.Get().(*searcher)
	defer s.searchers.Put(sc)
	sc.normalize(&q)
	if q.empty() {
		return dst
	}
	// Probe the memtable BEFORE loading the segment snapshot: a racing
	// seal installs its snapshot first and resets the memtable second, so
	// whichever way the race lands, every published doc is visible on at
	// least one side (at most both — mergeInto dedups equal heads).
	s.memMu.RLock()
	sc.searchMem(s.mem, &q)
	s.memMu.RUnlock()
	snap := s.snap.Load()
	sc.arena = sc.arena[:0]
	sc.bounds = sc.bounds[:0]
	for _, g := range snap.segs {
		start := len(sc.arena)
		sc.searchSegment(g, &q)
		if len(sc.arena) > start {
			sc.bounds = append(sc.bounds, start, len(sc.arena))
		}
	}
	if len(sc.memQ) > 0 {
		start := len(sc.arena)
		sc.arena = append(sc.arena, sc.memQ...)
		sc.bounds = append(sc.bounds, start, len(sc.arena))
	}
	return sc.mergeInto(dst)
}

// searchMem evaluates the query against the live memtable into sc.memQ.
func (sc *searcher) searchMem(b *builder, q *Query) {
	sc.memQ = sc.memQ[:0]
	if b.docs() == 0 {
		return
	}
	if len(q.Terms) == 0 {
		for i := range b.ids {
			if q.matchAttrs(b.modes[i], b.dates[i]) {
				sc.memQ = append(sc.memQ, b.ids[i])
			}
		}
		slices.Sort(sc.memQ)
		return
	}
	// Intersect the in-memory posting lists, rarest first.
	var drv []uint32
	for _, tok := range q.Terms {
		pl := b.terms[tok]
		if pl == nil || len(pl.ords) == 0 {
			return
		}
		if drv == nil || len(pl.ords) < len(drv) {
			drv = pl.ords
		}
	}
	for _, ord := range drv {
		all := true
		for _, tok := range q.Terms {
			if _, ok := slices.BinarySearch(b.terms[tok].ords, ord); !ok {
				all = false
				break
			}
		}
		if all && q.matchAttrs(b.modes[ord], b.dates[ord]) {
			sc.memQ = append(sc.memQ, b.ids[ord])
		}
	}
	slices.Sort(sc.memQ)
}

// mergeInto k-way-merges the per-source ascending runs recorded in
// sc.bounds into dst. Sources are disjoint except for the benign
// seal-vs-query race (a doc momentarily visible in both the new segment
// and the memtable), so equal heads deduplicate.
func (sc *searcher) mergeInto(dst []object.ID) []object.ID {
	n := len(sc.bounds) / 2
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, len(sc.arena)) // an upper bound: dedup only shrinks it
	if n == 1 {
		return append(dst, sc.arena[sc.bounds[0]:sc.bounds[1]]...)
	}
	sc.lists = sc.lists[:0]
	sc.heads = sc.heads[:0]
	for i := 0; i < n; i++ {
		sc.lists = append(sc.lists, sc.arena[sc.bounds[2*i]:sc.bounds[2*i+1]])
		sc.heads = append(sc.heads, 0)
	}
	var last object.ID
	first := true
	for {
		best := -1
		for i := 0; i < n; i++ {
			if sc.heads[i] >= len(sc.lists[i]) {
				continue
			}
			if best == -1 || sc.lists[i][sc.heads[i]] < sc.lists[best][sc.heads[best]] {
				best = i
			}
		}
		if best == -1 {
			return dst
		}
		v := sc.lists[best][sc.heads[best]]
		sc.heads[best]++
		if first || v != last {
			dst = append(dst, v)
			last, first = v, false
		}
	}
}

// SearchNaive is the reference evaluation kept for the E-INDEX A/B and the
// tests: it materializes every term's full posting set into maps and
// intersects them — no term ordering, no skip probes. Same results as
// Search, the seed's cost model.
func (s *Store) SearchNaive(q Query) []object.ID {
	sc := &searcher{}
	sc.normalize(&q)
	if q.empty() {
		return nil
	}
	// Hold the memtable read lock across the whole evaluation and load
	// the snapshot inside it: a racing seal installs its snapshot before
	// acquiring the write lock to reset the memtable, so this ordering
	// sees every published doc at least once (maps absorb the overlap).
	s.memMu.RLock()
	defer s.memMu.RUnlock()
	snap := s.snap.Load()
	var result map[object.ID]bool
	collect := func(tok string) map[object.ID]bool {
		objs := map[object.ID]bool{}
		for _, g := range snap.segs {
			te := g.findTerm(tok)
			if te == nil {
				continue
			}
			var it postingIter
			it.reset(g, te)
			for {
				ord, ok := it.next()
				if !ok {
					break
				}
				objs[g.ids[ord]] = true
			}
		}
		if pl := s.mem.terms[tok]; pl != nil {
			for _, ord := range pl.ords {
				objs[s.mem.ids[ord]] = true
			}
		}
		return objs
	}
	if len(q.Terms) == 0 {
		result = map[object.ID]bool{}
		for _, g := range snap.segs {
			for i := range g.ids {
				result[g.ids[i]] = true
			}
		}
		for _, id := range s.mem.ids {
			result[id] = true
		}
	}
	for _, tok := range q.Terms {
		objs := collect(tok)
		if result == nil {
			result = objs
			continue
		}
		for id := range result {
			if !objs[id] {
				delete(result, id)
			}
		}
	}
	attrs := func(id object.ID) bool {
		if !q.HasFilters() {
			return true
		}
		for _, g := range snap.segs {
			if ord, ok := slices.BinarySearch(g.ids, id); ok {
				return q.matchAttrs(g.modes[ord], g.dates[ord])
			}
		}
		if ord, ok := s.mem.byID[id]; ok {
			return q.matchAttrs(s.mem.modes[ord], s.mem.dates[ord])
		}
		return false
	}
	out := make([]object.ID, 0, len(result))
	for id := range result {
		if attrs(id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}
