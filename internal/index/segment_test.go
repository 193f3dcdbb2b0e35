package index

import (
	"fmt"
	"testing"

	"minos/internal/object"
)

// testDoc builds a deterministic synthetic doc: ~10 terms drawn from a
// small vocabulary so lists cross skip-block boundaries at modest corpus
// sizes.
func testDoc(i int, d *Doc) {
	d.ID = object.ID(1000 + i*3) // sparse, ascending ids
	d.Mode = object.Visual
	if i%4 == 0 {
		d.Mode = object.Audio
	}
	d.Date = uint32(2000*416 + 32 + 1 + i%1200)
	d.Terms = d.Terms[:0]
	r := uint64(i)*2654435761 + 12345
	next := func(mod uint64) uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r % mod
	}
	d.Terms = append(d.Terms, "alpha") // in every doc
	if i%2 == 0 {
		d.Terms = append(d.Terms, "even")
	}
	if i%97 == 0 {
		d.Terms = append(d.Terms, "rareterm")
	}
	for k := 0; k < 7; k++ {
		d.Terms = append(d.Terms, fmt.Sprintf("w%03d", next(200)))
	}
	d.Terms = append(d.Terms, d.Terms[len(d.Terms)-1]) // duplicate within doc
}

func buildTestSegment(t testing.TB, n int) *Segment {
	t.Helper()
	b := newBuilder()
	var d Doc
	for i := 0; i < n; i++ {
		testDoc(i, &d)
		if !b.add(&d) {
			t.Fatalf("duplicate doc %d", i)
		}
	}
	seg, err := ParseSegment(b.seal())
	if err != nil {
		t.Fatalf("ParseSegment: %v", err)
	}
	return seg
}

// reference builds the term -> sorted doc-id map the segment must agree
// with.
func reference(n int) (map[string][]object.ID, map[object.ID]Doc) {
	terms := map[string][]object.ID{}
	docs := map[object.ID]Doc{}
	var d Doc
	for i := 0; i < n; i++ {
		testDoc(i, &d)
		seen := map[string]bool{}
		for _, tok := range d.Terms {
			if seen[tok] {
				continue
			}
			seen[tok] = true
			terms[tok] = append(terms[tok], d.ID)
		}
		docs[d.ID] = Doc{ID: d.ID, Mode: d.Mode, Date: d.Date}
	}
	return terms, docs
}

func TestSegmentRoundTrip(t *testing.T) {
	const n = 700 // crosses several skip blocks for common terms
	seg := buildTestSegment(t, n)
	want, docs := reference(n)
	if seg.Docs() != n {
		t.Fatalf("Docs = %d, want %d", seg.Docs(), n)
	}
	if seg.Terms() != len(want) {
		t.Fatalf("Terms = %d, want %d", seg.Terms(), len(want))
	}
	for tok, ids := range want {
		te := seg.findTerm(tok)
		if te == nil {
			t.Fatalf("term %q missing", tok)
		}
		if int(te.count) != len(ids) {
			t.Fatalf("term %q count %d, want %d", tok, te.count, len(ids))
		}
		var it postingIter
		it.reset(seg, te)
		for k, wantID := range ids {
			ord, ok := it.next()
			if !ok {
				t.Fatalf("term %q: list ended at %d/%d", tok, k, len(ids))
			}
			if seg.ids[ord] != wantID {
				t.Fatalf("term %q posting %d = id %d, want %d", tok, k, seg.ids[ord], wantID)
			}
		}
		if _, ok := it.next(); ok {
			t.Fatalf("term %q: postings past count", tok)
		}
	}
	for i, id := range seg.ids {
		ref := docs[id]
		if seg.modes[i] != ref.Mode || seg.dates[i] != ref.Date {
			t.Fatalf("doc %d attrs (%v,%d), want (%v,%d)", id, seg.modes[i], seg.dates[i], ref.Mode, ref.Date)
		}
	}
	if seg.findTerm("nosuchterm") != nil {
		t.Fatal("findTerm invented a term")
	}
}

func TestSegmentSeekGE(t *testing.T) {
	const n = 900
	seg := buildTestSegment(t, n)
	want, _ := reference(n)
	for _, tok := range []string{"alpha", "even", "rareterm", "w000"} {
		ids := want[tok]
		te := seg.findTerm(tok)
		if te == nil {
			t.Fatalf("term %q missing", tok)
		}
		// Walk targets forward, mixing exact hits and gaps, fresh and
		// resumed iterators.
		var it postingIter
		it.reset(seg, te)
		for probe := 0; probe < seg.Docs(); probe += 37 {
			target := uint32(probe)
			got, ok := it.seekGE(target)
			wantOrd, wantOK := refSeekGE(seg, ids, target)
			if ok != wantOK || (ok && got != wantOrd) {
				t.Fatalf("term %q seekGE(%d) = (%d,%v), want (%d,%v)", tok, target, got, ok, wantOrd, wantOK)
			}
			if !ok {
				break
			}
		}
		// Fresh iterator straight to a late block.
		it.reset(seg, te)
		target := uint32(seg.Docs() * 3 / 4)
		got, ok := it.seekGE(target)
		wantOrd, wantOK := refSeekGE(seg, ids, target)
		if ok != wantOK || (ok && got != wantOrd) {
			t.Fatalf("term %q cold seekGE(%d) = (%d,%v), want (%d,%v)", tok, target, got, ok, wantOrd, wantOK)
		}
	}
}

// refSeekGE computes the expected first ordinal >= target for the term's
// id list.
func refSeekGE(seg *Segment, ids []object.ID, target uint32) (uint32, bool) {
	for _, id := range ids {
		ord := ordOf(seg, id)
		if ord >= target {
			return ord, true
		}
	}
	return 0, false
}

func ordOf(seg *Segment, id object.ID) uint32 {
	for i, v := range seg.ids {
		if v == id {
			return uint32(i)
		}
	}
	return ^uint32(0)
}

// TestSegmentTruncationTable feeds every prefix of a valid segment to the
// parser: each must fail cleanly, never panic — the same discipline as the
// cluster-map and WebSocket frame codecs.
func TestSegmentTruncationTable(t *testing.T) {
	seg := buildTestSegment(t, 60)
	blob := seg.Bytes()
	for cut := 0; cut < len(blob); cut++ {
		if _, err := ParseSegment(blob[:cut]); err == nil {
			t.Fatalf("ParseSegment accepted a %d/%d-byte prefix", cut, len(blob))
		}
	}
	if _, err := ParseSegment(blob); err != nil {
		t.Fatalf("full blob rejected: %v", err)
	}
	// Trailing garbage must be rejected too (WORM files have exact sizes).
	if _, err := ParseSegment(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("ParseSegment accepted trailing bytes")
	}
}

// TestSegmentCorruptionSweep flips every byte of a small segment; the
// parser must never panic, and whatever parses must be walkable.
func TestSegmentCorruptionSweep(t *testing.T) {
	seg := buildTestSegment(t, 40)
	blob := seg.Bytes()
	mut := make([]byte, len(blob))
	for pos := 0; pos < len(blob); pos++ {
		copy(mut, blob)
		mut[pos] ^= 0xFF
		g, err := ParseSegment(mut)
		if err != nil {
			continue
		}
		// Still-valid parses (e.g. a flipped date byte) must be walkable.
		for ti := range g.terms {
			var it postingIter
			it.reset(g, &g.terms[ti])
			for {
				if _, ok := it.next(); !ok {
					break
				}
			}
		}
		_ = g.findTerm("alpha")
	}
}

// TestSegmentHostileCounts aims fabricated headers with huge counts at the
// parser: every count must be validated against the remaining bytes before
// anything is allocated from it.
func TestSegmentHostileCounts(t *testing.T) {
	cases := [][]byte{
		// doc count 2^32-1 on a tiny blob.
		{'M', 'S', 'G', '2', 2, 0xFF, 0xFF, 0xFF, 0xFF},
		// term count huge.
		{'M', 'S', 'G', '2', 2, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},
		// one doc, one term whose posting count exceeds the doc count.
		{'M', 'S', 'G', '2', 2, 0, 0, 0, 1,
			0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
			0, 0, 0, 1, 0, 1, 'a', 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1},
		// posting bytes claimed far beyond the blob.
		{'M', 'S', 'G', '2', 2, 0, 0, 0, 1,
			0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
			0, 0, 0, 1, 0, 1, 'a', 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 1},
		// a well-formed empty MSG1 segment (4 signature words per doc):
		// the old layout is rejected on its magic, never misparsed.
		{'M', 'S', 'G', '1', 1, 3, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for i, blob := range cases {
		if _, err := ParseSegment(blob); err == nil {
			t.Fatalf("case %d: hostile header accepted", i)
		}
	}
}

func FuzzParseSegment(f *testing.F) {
	seg := buildTestSegment(f, 30)
	f.Add(seg.Bytes())
	f.Add(seg.Bytes()[:len(seg.Bytes())/2])
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	f.Add(buildTestSegment(f, 3).Bytes())
	f.Fuzz(func(t *testing.T, blob []byte) {
		g, err := ParseSegment(blob)
		if err != nil {
			return
		}
		// Anything that parses must be fully walkable without panicking.
		for ti := range g.terms {
			var it postingIter
			it.reset(g, &g.terms[ti])
			prev := int64(-1)
			for {
				ord, ok := it.next()
				if !ok {
					break
				}
				if int64(ord) <= prev || int(ord) >= g.Docs() {
					t.Fatalf("term %d: bad ordinal %d after %d", ti, ord, prev)
				}
				prev = int64(ord)
			}
		}
	})
}

// TestSegmentDeterministic seals the same docs in different insertion
// orders and with/without an intermediate reset; the segment file must be
// bit-identical (the WORM replica argument depends on it).
func TestSegmentDeterministic(t *testing.T) {
	const n = 120
	build := func(order []int, warm bool) []byte {
		b := newBuilder()
		if warm {
			var d Doc
			for i := 0; i < 30; i++ {
				testDoc(i+500, &d)
				b.add(&d)
			}
			b.reset()
		}
		var d Doc
		for _, i := range order {
			testDoc(i, &d)
			b.add(&d)
		}
		return b.seal()
	}
	fwd := make([]int, n)
	rev := make([]int, n)
	for i := range fwd {
		fwd[i] = i
		rev[n-1-i] = i
	}
	a := build(fwd, false)
	bb := build(rev, true)
	if string(a) != string(bb) {
		t.Fatal("segment bytes differ across insertion order / builder reuse")
	}
}
