package index

import (
	"fmt"
	"slices"
	"testing"

	"minos/internal/object"
	"minos/internal/text"
	"minos/internal/voice"
)

// The object-level term-space tests: what an object contributes to the
// index (DocFromObject) and what Store.AddObject + Search make of it, in
// the memtable and in a sealed segment alike.

func makeObject(t testing.TB, id object.ID, markup string, vocab []string) *object.Object {
	t.Helper()
	b := object.NewBuilder(id, "t", object.Visual).Text(markup)
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if vocab != nil {
		seg, _ := text.Parse(markup)
		syn := voice.Synthesize(text.Flatten(seg), voice.DefaultSpeaker(), 2000)
		r := voice.NewRecognizer(vocab)
		r.HitRate = 1.0
		syn.Part.Utterances = r.Recognize(syn.Marks)
		o.Voice = append(o.Voice, syn.Part)
	}
	return o
}

// bothForms runs check against a store holding the objects unsealed (the
// memtable answers) and against one holding them sealed (a segment does).
func bothForms(t *testing.T, objs []*object.Object, check func(t *testing.T, s *Store)) {
	t.Helper()
	for _, sealed := range []bool{false, true} {
		name := "memtable"
		if sealed {
			name = "sealed"
		}
		t.Run(name, func(t *testing.T) {
			s := NewStore(Config{})
			for _, o := range objs {
				if !s.AddObject(o) {
					t.Fatalf("object %d rejected", o.ID)
				}
			}
			if sealed {
				s.Seal()
				if st := s.Stats(); st.Segments != 1 || st.Docs != len(objs) {
					t.Fatalf("sealed stats = %+v", st)
				}
			}
			check(t, s)
		})
	}
}

func search(s *Store, terms ...string) []object.ID {
	return s.Search(Query{Terms: terms}, nil)
}

func wantIDs(t *testing.T, what string, got []object.ID, want ...object.ID) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

func TestQueryAND(t *testing.T) {
	objs := []*object.Object{
		makeObject(t, 1, "the lung shadow is benign.\n", nil),
		makeObject(t, 2, "the lung is clear today.\n", nil),
		makeObject(t, 3, "heart rhythm is regular.\n", nil),
	}
	bothForms(t, objs, func(t *testing.T, s *Store) {
		wantIDs(t, "lung", search(s, "lung"), 1, 2)
		wantIDs(t, "lung shadow", search(s, "lung", "shadow"), 1)
		wantIDs(t, "disjoint terms", search(s, "lung", "rhythm"))
		wantIDs(t, "empty query", search(s))
		wantIDs(t, "missing term", search(s, "absent"))
	})
}

func TestQueryNormalizesTerms(t *testing.T) {
	objs := []*object.Object{makeObject(t, 1, "The X-ray looks fine.\n", nil)}
	bothForms(t, objs, func(t *testing.T, s *Store) {
		wantIDs(t, "x-ray", search(s, "x-ray"), 1)
		wantIDs(t, "XRAY", search(s, "XRAY"), 1)
	})
}

func TestAddObjectIdempotent(t *testing.T) {
	o := makeObject(t, 1, "alpha beta.\n", nil)
	bothForms(t, []*object.Object{o}, func(t *testing.T, s *Store) {
		before := s.Stats()
		if s.AddObject(o) {
			t.Fatal("second AddObject of the same id accepted")
		}
		if after := s.Stats(); after != before {
			t.Fatalf("double indexing changed the store: %+v -> %+v", before, after)
		}
		wantIDs(t, "alpha", search(s, "alpha"), 1)
	})
}

func TestVoiceUtterancesIndexed(t *testing.T) {
	o := makeObject(t, 7, "the shadow appears benign today.\n", []string{"shadow", "benign"})
	// A recognized utterance the text does not contain: only the voice part
	// can make the object answer it ("same access methods as in text").
	o.Voice[0].Utterances = append(o.Voice[0].Utterances, voice.Utterance{Token: "murmur", Offset: 1})
	bothForms(t, []*object.Object{o}, func(t *testing.T, s *Store) {
		wantIDs(t, "benign", search(s, "benign"), 7)
		wantIDs(t, "voice-only token", search(s, "murmur"), 7)
		wantIDs(t, "text and voice token", search(s, "today", "murmur"), 7)
	})
	// The word spoken and written is one term, posted once.
	var d Doc
	DocFromObject(o, &d)
	if n := count(d.Terms, "shadow"); n != 2 {
		t.Fatalf("shadow contributed %d times, want 2 (text and voice)", n)
	}
	s := NewStore(Config{})
	s.AddObject(o)
	if p, distinct := s.mem.postings, len(distinctTerms(d.Terms)); p != distinct {
		t.Fatalf("postings = %d, want one per distinct term (%d)", p, distinct)
	}
}

func TestTermsCount(t *testing.T) {
	s := NewStore(Config{})
	s.AddObject(makeObject(t, 1, "alpha beta alpha.\n", nil))
	s.Seal()
	// Two body tokens plus the object title token ("t").
	if got := s.Segments()[0].Terms(); got != 3 {
		t.Fatalf("Terms = %d, want 3", got)
	}
}

func TestTitlesAreQueryable(t *testing.T) {
	objs := []*object.Object{
		makeObject(t, 1, ".title Subway Map\n.chapter Lines\n.section Eastern Branch\nbody words only here.\n", nil),
	}
	bothForms(t, objs, func(t *testing.T, s *Store) {
		wantIDs(t, "segment title", search(s, "subway"), 1)
		wantIDs(t, "chapter title", search(s, "lines"), 1)
		wantIDs(t, "section title", search(s, "eastern"), 1)
		wantIDs(t, "object title", search(s, "t"), 1)
	})
}

func TestAttributesAreQueryable(t *testing.T) {
	o := makeObject(t, 1, "plain body words.\n", nil)
	o.Attrs["author"] = "Christodoulakis"
	o.Attrs["ward"] = "radiology"
	o.Attrs["date"] = "1986-05-28"
	bothForms(t, []*object.Object{o}, func(t *testing.T, s *Store) {
		wantIDs(t, "author", search(s, "christodoulakis"), 1)
		wantIDs(t, "ward", search(s, "radiology"), 1)
		q, err := ParseQuery("radiology kind:visual after:1986-01-01 before:1986-12-31")
		if err != nil {
			t.Fatal(err)
		}
		wantIDs(t, "term + attribute predicates", s.Search(q, nil), 1)
		q, _ = ParseQuery("radiology after:1987-01-01")
		wantIDs(t, "date out of range", s.Search(q, nil))
		q, _ = ParseQuery("radiology kind:audio")
		wantIDs(t, "wrong mode", s.Search(q, nil))
	})
}

func TestDocFromObject(t *testing.T) {
	o := makeObject(t, 9, ".title Spoken Notes\n.chapter Findings\n.section Left Lung\nThe X-ray shows a shadow.\n", nil)
	o.Title = "Case File"
	o.Mode = object.Audio
	o.Attrs["ward"] = "Radiology"
	o.Attrs["date"] = "1986-05-28"
	o.Voice = append(o.Voice, &voice.Part{Utterances: []voice.Utterance{{Token: "murmur", Offset: 40}, {Token: "", Offset: 80}}})

	d := Doc{Terms: []string{"stale"}}
	DocFromObject(o, &d)
	wantDate, _ := ParseDate("1986-05-28")
	if d.ID != 9 || d.Mode != object.Audio || d.Date != wantDate {
		t.Fatalf("doc = id %d mode %v date %d", d.ID, d.Mode, d.Date)
	}
	want := []string{
		"case", "file", // object title
		"radiology", "19860528", // attribute values
		"spoken", "notes", "findings", "left", "lung", // segment, chapter, section titles
		"the", "xray", "shows", "a", "shadow", // the word stream, normalized
		"murmur", // recognized utterance; the empty token is dropped
	}
	if got := distinctTerms(d.Terms); !slices.Equal(got, distinctTerms(want)) {
		t.Fatalf("terms = %v\nwant    %v", got, distinctTerms(want))
	}
	if len(d.Terms) != len(want) {
		t.Fatalf("%d terms, want %d: %v", len(d.Terms), len(want), d.Terms)
	}

	// The doc is reusable: a second object replaces the first's terms, and
	// an unparsable date reads as none.
	p := makeObject(t, 10, "plain.\n", nil)
	p.Attrs["date"] = "yesterday"
	DocFromObject(p, &d)
	if d.ID != 10 || d.Date != 0 || d.Mode != object.Visual {
		t.Fatalf("reused doc = id %d mode %v date %d", d.ID, d.Mode, d.Date)
	}
	if got := distinctTerms(d.Terms); !slices.Equal(got, []string{"plain", "t", "yesterday"}) {
		t.Fatalf("reused doc terms = %v", got)
	}
}

func count(terms []string, tok string) int {
	n := 0
	for _, t := range terms {
		if t == tok {
			n++
		}
	}
	return n
}

func distinctTerms(terms []string) []string {
	out := slices.Clone(terms)
	slices.Sort(out)
	return slices.Compact(out)
}

// conjCorpus is 64 objects in which three terms from three different
// places — a segment title word, a body word and a voice-only utterance —
// each occur in half the objects, independently: object i has "spoken" in
// its title when bit 0 of i is clear, "shadow" in its body when bit 1 is,
// and the utterance "murmur" when bit 2 is. Objects with i%8 == 0 hold all
// three. Every object also carries a term of its own.
func conjCorpus(t *testing.T) []*object.Object {
	t.Helper()
	var objs []*object.Object
	for i := 0; i < 64; i++ {
		title, body := "Typed Notes", "clear"
		if i&1 == 0 {
			title = "Spoken Notes"
		}
		if i&2 == 0 {
			body = "shadow"
		}
		o := makeObject(t, object.ID(i+1), fmt.Sprintf(".title %s\ndocument unique%d shows a %s here.\n", title, i, body), nil)
		if i&4 == 0 {
			o.Voice = append(o.Voice, &voice.Part{Utterances: []voice.Utterance{{Token: "murmur", Offset: 10}}})
		}
		objs = append(objs, o)
	}
	return objs
}

// TestSealedConjunction seals conjCorpus into one segment and answers
// all-common conjunctions over the three term sources on the intersect
// path, each checked against the expected ids and against SearchNaive.
func TestSealedConjunction(t *testing.T) {
	objs := conjCorpus(t)
	s := NewStore(Config{})
	for _, o := range objs {
		s.AddObject(o)
	}
	s.Seal()
	terms := []string{"spoken", "shadow", "murmur"}
	sc := &searcher{}
	if got := sc.planSegment(s.Segments()[0], &Query{Terms: terms}); got != strategyIntersect {
		t.Fatalf("strategy = %d, want intersect", got)
	}
	check := func(what string, q Query, want ...object.ID) {
		t.Helper()
		wantIDs(t, what, s.Search(q, nil), want...)
		wantIDs(t, what+" (naive)", s.SearchNaive(q), want...)
	}
	// Each source alone: the objects whose bit for it is clear.
	for ti, tok := range terms {
		var want []object.ID
		for i := range objs {
			if i&(1<<ti) == 0 {
				want = append(want, object.ID(i+1))
			}
		}
		check(tok, Query{Terms: []string{tok}}, want...)
	}
	all := []object.ID{1, 9, 17, 25, 33, 41, 49, 57}
	check("all three", Query{Terms: terms}, all...)
	// A fourth term that one true match holds narrows the conjunction to
	// it; one that only a non-match holds empties it.
	check("narrowed", Query{Terms: append([]string{"unique8"}, terms...)}, 9)
	check("emptied", Query{Terms: append([]string{"unique3"}, terms...)})
	check("wrong mode", Query{Terms: terms, Kind: KindAudio})
	check("kind:visual", Query{Terms: terms, Kind: KindVisual}, all...)
	check("no terms", Query{})
	check("punctuation only", Query{Terms: []string{"..."}})
}
