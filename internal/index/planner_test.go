package index

import (
	"fmt"
	"testing"

	"minos/internal/object"
)

func TestParseDate(t *testing.T) {
	v, err := ParseDate("1986-05-28")
	if err != nil {
		t.Fatal(err)
	}
	if FormatDate(v) != "1986-05-28" {
		t.Fatalf("round trip: %q", FormatDate(v))
	}
	lo, _ := ParseDate("1986-05-27")
	hi, _ := ParseDate("1986-06-01")
	hi2, _ := ParseDate("1987-01-01")
	if !(lo < v && v < hi && hi < hi2) {
		t.Fatalf("ordinal encoding not monotonic: %d %d %d %d", lo, v, hi, hi2)
	}
	for _, bad := range []string{"", "1986-5-28", "19860528", "1986-13-01", "1986-00-10", "1986-01-32", "abcd-ef-gh"} {
		if _, err := ParseDate(bad); err == nil {
			t.Fatalf("ParseDate(%q) accepted", bad)
		}
	}
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery("Lung SHADOW kind:audio after:1986-01-01 before:1986-12-31")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Terms) != 2 || q.Terms[0] != "lung" || q.Terms[1] != "shadow" {
		t.Fatalf("terms = %v", q.Terms)
	}
	if q.Kind != KindAudio || q.DateFrom == 0 || q.DateTo == 0 || q.DateFrom >= q.DateTo {
		t.Fatalf("filters = %+v", q)
	}
	if !q.HasFilters() {
		t.Fatal("HasFilters = false")
	}
	if q2, _ := ParseQuery("lung shadow"); q2.HasFilters() {
		t.Fatal("plain terms reported filters")
	}
	if _, err := ParseQuery("kind:nope"); err == nil {
		t.Fatal("bad kind accepted")
	}
	if _, err := ParseQuery("after:19-1-1"); err == nil {
		t.Fatal("bad date accepted")
	}
}

// plannerDoc gives every doc 3 common terms (from a pool of 9, ~1/3 each)
// and i%101==0 docs one rare term: conjunctions with a rare driver and
// all-common ones.
func plannerDoc(i int, d *Doc) {
	d.ID = object.ID(i + 1)
	d.Mode = object.Visual
	d.Date = 0
	d.Terms = d.Terms[:0]
	r := uint64(i)*0x9E3779B97F4A7C15 + 1
	for k := 0; k < 3; k++ {
		r ^= r >> 29
		r *= 0xBF58476D1CE4E5B9
		d.Terms = append(d.Terms, fmt.Sprintf("common%d", (r>>32)%9))
	}
	if i%101 == 0 {
		d.Terms = append(d.Terms, "needle")
	}
}

func TestPlannerStrategyChoice(t *testing.T) {
	b := newBuilder()
	var d Doc
	for i := 0; i < 5000; i++ {
		plannerDoc(i, &d)
		b.add(&d)
	}
	seg, err := ParseSegment(b.seal())
	if err != nil {
		t.Fatal(err)
	}
	sc := &searcher{}
	plan := func(q Query) strategy { return sc.planSegment(seg, &q) }

	// Terms -> intersection, rarest term first whatever the query order.
	for _, terms := range [][]string{
		{"common0", "needle", "common1"},
		{"common0", "common1", "common2"},
	} {
		if got := plan(Query{Terms: terms}); got != strategyIntersect {
			t.Fatalf("%v: strategy = %d, want intersect", terms, got)
		}
		for i := 1; i < len(sc.terms); i++ {
			if sc.terms[i].count < sc.terms[i-1].count {
				t.Fatalf("%v: term counts not ascending at %d", terms, i)
			}
		}
	}
	plan(Query{Terms: []string{"common0", "needle", "common1"}})
	if sc.terms[0].count != 50 { // 5000/101 rounded up
		t.Fatalf("driver count = %d, want 50", sc.terms[0].count)
	}

	// Missing term -> empty; no terms and no filters -> empty.
	if got := plan(Query{Terms: []string{"common0", "absent"}}); got != strategyEmpty {
		t.Fatalf("missing-term strategy = %d, want empty", got)
	}
	if got := plan(Query{}); got != strategyEmpty {
		t.Fatalf("empty-query strategy = %d, want empty", got)
	}

	// Attribute-only -> scan.
	if got := plan(Query{Kind: KindVisual}); got != strategyScan {
		t.Fatalf("attr-only strategy = %d, want scan", got)
	}

	// Execution must agree with brute force.
	ref := func(q Query) []object.ID {
		var out []object.ID
		var rd Doc
		for i := 0; i < 5000; i++ {
			plannerDoc(i, &rd)
			all := true
			for _, tok := range q.Terms {
				found := false
				for _, dt := range rd.Terms {
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
			if all {
				out = append(out, rd.ID)
			}
		}
		return out
	}
	for _, q := range []Query{
		{Terms: []string{"common0", "common1", "common2"}},
		{Terms: []string{"needle", "common0"}},
	} {
		sc.arena = sc.arena[:0]
		sc.searchSegment(seg, &q)
		want := ref(q)
		if !eqIDs(sc.arena, want) {
			t.Fatalf("query %v: got %d ids, want %d", q.Terms, len(sc.arena), len(want))
		}
	}
}

// TestNormalizeIfNeeded checks the allocation-free pass-through.
func TestNormalizeIfNeeded(t *testing.T) {
	if got := normalizeIfNeeded("lung"); got != "lung" {
		t.Fatalf("clean token changed: %q", got)
	}
	if got := normalizeIfNeeded("Lung!"); got != "lung" {
		t.Fatalf("dirty token = %q, want lung", got)
	}
	n := testing.AllocsPerRun(100, func() {
		_ = normalizeIfNeeded("alreadyclean123")
	})
	if n > 0 {
		t.Fatalf("clean-token normalize allocates %.1f", n)
	}
}
