package index

import (
	"fmt"
	"strings"

	"minos/internal/object"
	"minos/internal/text"
)

// KindFilter restricts a query to one driving mode.
type KindFilter uint8

const (
	KindAny KindFilter = iota
	KindVisual
	KindAudio
)

// Query is a planned content query: an AND over normalized terms combined
// with attribute predicates from the descriptor (driving mode, archive date
// range). The zero value matches nothing.
type Query struct {
	Terms []string
	Kind  KindFilter
	// DateFrom/DateTo bound the ordinal-encoded date (see ParseDate),
	// inclusive; zero means unbounded on that side.
	DateFrom uint32
	DateTo   uint32
}

// HasFilters reports whether the query carries attribute predicates beyond
// its terms (such a query cannot be served by the plain term-query op).
func (q Query) HasFilters() bool {
	return q.Kind != KindAny || q.DateFrom != 0 || q.DateTo != 0
}

// empty reports whether the query can match nothing at all.
func (q Query) empty() bool {
	return len(q.Terms) == 0 && !q.HasFilters()
}

// matchAttrs applies the attribute predicates to one doc.
func (q *Query) matchAttrs(mode object.Mode, date uint32) bool {
	switch q.Kind {
	case KindVisual:
		if mode != object.Visual {
			return false
		}
	case KindAudio:
		if mode != object.Audio {
			return false
		}
	}
	if q.DateFrom != 0 && date < q.DateFrom {
		return false
	}
	if q.DateTo != 0 && (date > q.DateTo || date == 0) {
		return false
	}
	return true
}

// ParseDate parses a YYYY-MM-DD attribute date into its ordinal encoding
// (year*416 + month*32 + day): not a calendar day count, but strictly
// monotonic in the date, which is all range predicates need. Zero is
// reserved for "no date".
func ParseDate(s string) (uint32, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, fmt.Errorf("index: date %q is not YYYY-MM-DD", s)
	}
	num := func(sub string) (int, bool) {
		v := 0
		for i := 0; i < len(sub); i++ {
			if sub[i] < '0' || sub[i] > '9' {
				return 0, false
			}
			v = v*10 + int(sub[i]-'0')
		}
		return v, true
	}
	y, ok1 := num(s[:4])
	m, ok2 := num(s[5:7])
	d, ok3 := num(s[8:])
	if !ok1 || !ok2 || !ok3 || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, fmt.Errorf("index: date %q is not YYYY-MM-DD", s)
	}
	return uint32(y*416 + m*32 + d), nil
}

// FormatDate is ParseDate's inverse.
func FormatDate(v uint32) string {
	return fmt.Sprintf("%04d-%02d-%02d", v/416, (v%416)/32, v%32)
}

// ParseQuery parses the user-facing query syntax: whitespace-separated
// terms plus the attribute filters kind:visual|audio, after:YYYY-MM-DD and
// before:YYYY-MM-DD (both inclusive).
func ParseQuery(s string) (Query, error) {
	var q Query
	for _, f := range strings.Fields(s) {
		switch {
		case strings.HasPrefix(f, "kind:"):
			switch f[len("kind:"):] {
			case "visual":
				q.Kind = KindVisual
			case "audio":
				q.Kind = KindAudio
			case "any":
				q.Kind = KindAny
			default:
				return Query{}, fmt.Errorf("index: unknown kind %q", f[len("kind:"):])
			}
		case strings.HasPrefix(f, "after:"):
			v, err := ParseDate(f[len("after:"):])
			if err != nil {
				return Query{}, err
			}
			q.DateFrom = v
		case strings.HasPrefix(f, "before:"):
			v, err := ParseDate(f[len("before:"):])
			if err != nil {
				return Query{}, err
			}
			q.DateTo = v
		default:
			if tok := text.NormalizeToken(f); tok != "" {
				q.Terms = append(q.Terms, tok)
			}
		}
	}
	return q, nil
}

// normalizeIfNeeded is text.NormalizeToken with an allocation-free pass
// for tokens that are already normalized (lowercase ASCII alphanumerics) —
// the hot-path case, since every parse front-end normalizes terms before
// they reach the store.
func normalizeIfNeeded(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') {
			continue
		}
		return text.NormalizeToken(s)
	}
	return s
}

// strategy is how one segment is searched. The query's shape decides it:
// there is one access path for terms, so nothing is left to price.
type strategy uint8

const (
	// strategyEmpty: no terms and no filters, or some term is absent from
	// the segment; no matches.
	strategyEmpty strategy = iota
	// strategyScan: no terms; walk the doc table applying attribute
	// predicates only.
	strategyScan
	// strategyIntersect: posting intersection, terms ordered by ascending
	// posting count, the rarest list probed into the others via
	// skip-table seeks.
	strategyIntersect
)

// planSegment resolves the query's terms against one segment and picks the
// strategy. The resolved term entries are left in sc.terms, ordered by
// ascending posting count.
func (sc *searcher) planSegment(g *Segment, q *Query) strategy {
	sc.terms = sc.terms[:0]
	if len(q.Terms) == 0 {
		if q.HasFilters() {
			return strategyScan
		}
		return strategyEmpty
	}
	for _, tok := range q.Terms {
		te := g.findTerm(tok)
		if te == nil {
			return strategyEmpty
		}
		sc.terms = append(sc.terms, te)
	}
	// Ascending posting count: insertion sort on the tiny slice.
	for i := 1; i < len(sc.terms); i++ {
		for j := i; j > 0 && sc.terms[j].count < sc.terms[j-1].count; j-- {
			sc.terms[j], sc.terms[j-1] = sc.terms[j-1], sc.terms[j]
		}
	}
	return strategyIntersect
}

// searchSegment appends the segment's matching ids (ascending) to sc.arena.
func (sc *searcher) searchSegment(g *Segment, q *Query) {
	switch sc.planSegment(g, q) {
	case strategyScan:
		for i := range g.ids {
			if q.matchAttrs(g.modes[i], g.dates[i]) {
				sc.arena = append(sc.arena, g.ids[i])
			}
		}
	case strategyIntersect:
		sc.intersectSegment(g, q)
	}
}

// intersectSegment drives the shortest posting list through skip-table
// seeks into the others. Allocation-free once the searcher scratch is warm.
func (sc *searcher) intersectSegment(g *Segment, q *Query) {
	if cap(sc.iters) < len(sc.terms) {
		sc.iters = make([]postingIter, len(sc.terms))
	}
	sc.iters = sc.iters[:len(sc.terms)]
	for i, te := range sc.terms {
		sc.iters[i].reset(g, te)
	}
	drv := &sc.iters[0]
	ord, ok := drv.next()
	for ok {
		matched := true
		for i := 1; i < len(sc.iters); i++ {
			got, stillOK := sc.iters[i].seekGE(ord)
			if !stillOK {
				return
			}
			if got != ord {
				// This list jumped ahead; catch the driver up to it and
				// re-test from the top (seekGE never rewinds, so every
				// list advances monotonically).
				ord, ok = drv.seekGE(got)
				matched = false
				break
			}
		}
		if !matched {
			continue
		}
		if q.matchAttrs(g.modes[ord], g.dates[ord]) {
			sc.arena = append(sc.arena, g.ids[ord])
		}
		ord, ok = drv.next()
	}
}
