package text

import (
	"strings"
	"testing"
	"testing/quick"
)

const sampleDoc = `.title The Multimedia Object
.abstract
Large multimedia data bases become feasible. A very important component
will be the presentation manager.

.chapter Introduction
.section Motivation
Data base management systems have been very successful. New opportunities
emerge in application environments!

Voice will be a very important way of communication.
.section Contributions
We present *symmetric* capabilities for _text_ and /voice/ browsing.
.chapter Primitives
.section Pages
A text page is all the text presented at the same time. Audio pages are
consecutive partitions of approximately constant time length.
.references
Christodoulakis 85. Issues in the Architecture of a Document Archiver.
`

func mustParse(t *testing.T, src string) *Segment {
	t.Helper()
	seg, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return seg
}

func TestParseStructure(t *testing.T) {
	seg := mustParse(t, sampleDoc)
	if seg.Title != "The Multimedia Object" {
		t.Errorf("Title = %q", seg.Title)
	}
	if len(seg.Abstract) != 1 {
		t.Fatalf("abstract paragraphs = %d, want 1", len(seg.Abstract))
	}
	if len(seg.Chapters) != 2 {
		t.Fatalf("chapters = %d, want 2", len(seg.Chapters))
	}
	if seg.Chapters[0].Title != "Introduction" || seg.Chapters[1].Title != "Primitives" {
		t.Errorf("chapter titles = %q, %q", seg.Chapters[0].Title, seg.Chapters[1].Title)
	}
	if len(seg.Chapters[0].Sections) != 2 {
		t.Fatalf("ch0 sections = %d, want 2", len(seg.Chapters[0].Sections))
	}
	if seg.Chapters[0].Sections[1].Title != "Contributions" {
		t.Errorf("section title = %q", seg.Chapters[0].Sections[1].Title)
	}
	if len(seg.References) != 1 {
		t.Errorf("references paragraphs = %d, want 1", len(seg.References))
	}
}

func TestParseSentenceSplitting(t *testing.T) {
	seg := mustParse(t, ".chapter C\nOne two. Three four! Five six?\n")
	paras := seg.Chapters[0].Sections[0].Paragraphs
	if len(paras) != 1 {
		t.Fatalf("paragraphs = %d, want 1", len(paras))
	}
	sents := paras[0].Sentences
	if len(sents) != 3 {
		t.Fatalf("sentences = %d, want 3", len(sents))
	}
	wantTerm := []rune{'.', '!', '?'}
	for i, s := range sents {
		if len(s.Words) != 2 {
			t.Errorf("sentence %d words = %d, want 2", i, len(s.Words))
		}
		if s.Terminator != wantTerm[i] {
			t.Errorf("sentence %d terminator = %q, want %q", i, s.Terminator, wantTerm[i])
		}
	}
}

func TestParseEmphasis(t *testing.T) {
	seg := mustParse(t, "We present *symmetric* capabilities for _text_ and /voice/ browsing.\n")
	words := seg.Chapters[0].Sections[0].Paragraphs[0].Sentences[0].Words
	byText := map[string]Emphasis{}
	for _, w := range words {
		byText[w.Text] = w.Emph
	}
	if byText["symmetric"] != Bold {
		t.Errorf("symmetric emph = %v, want bold", byText["symmetric"])
	}
	if byText["text"] != Underline {
		t.Errorf("text emph = %v, want underline", byText["text"])
	}
	if byText["voice"] != Italic {
		t.Errorf("voice emph = %v, want italic", byText["voice"])
	}
	if byText["capabilities"] != Plain {
		t.Errorf("capabilities emph = %v, want plain", byText["capabilities"])
	}
}

func TestParseUnknownTag(t *testing.T) {
	if _, err := Parse(".bogus arg\n"); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

func TestParseBadIndent(t *testing.T) {
	if _, err := Parse(".indent x\n"); err == nil {
		t.Fatal("bad indent accepted")
	}
	if _, err := Parse(".indent -3\n"); err == nil {
		t.Fatal("negative indent accepted")
	}
}

func TestParseIndentApplied(t *testing.T) {
	seg := mustParse(t, ".indent 4\nIndented paragraph here.\n")
	p := seg.Chapters[0].Sections[0].Paragraphs[0]
	if p.Indent != 4 {
		t.Errorf("Indent = %d, want 4", p.Indent)
	}
}

func TestParseImplicitSection(t *testing.T) {
	seg := mustParse(t, ".chapter Solo\nBody text directly under chapter.\n")
	if len(seg.Chapters[0].Sections) != 1 {
		t.Fatalf("sections = %d, want implicit 1", len(seg.Chapters[0].Sections))
	}
}

func TestFlattenBoundaries(t *testing.T) {
	seg := mustParse(t, sampleDoc)
	stream := Flatten(seg)
	if len(stream) == 0 {
		t.Fatal("empty stream")
	}
	// First word of the abstract starts everything.
	if !stream[0].Starts(UnitChapter) || !stream[0].Starts(UnitSection) ||
		!stream[0].Starts(UnitParagraph) || !stream[0].Starts(UnitSentence) {
		t.Errorf("stream[0].Bounds = %b", stream[0].Bounds)
	}
	// Count chapter starts: abstract + 2 chapters + references = 4.
	n := 0
	for _, fw := range stream {
		if fw.Starts(UnitChapter) {
			n++
		}
	}
	if n != 4 {
		t.Errorf("chapter starts = %d, want 4", n)
	}
	// Section starts: abstract(1) + 2 + 1 + references(1) = 5.
	n = 0
	for _, fw := range stream {
		if fw.Starts(UnitSection) {
			n++
		}
	}
	if n != 5 {
		t.Errorf("section starts = %d, want 5", n)
	}
}

func TestFlattenChapterIndices(t *testing.T) {
	seg := mustParse(t, sampleDoc)
	stream := Flatten(seg)
	// Abstract words carry chapter -1.
	if stream[0].Chapter != -1 {
		t.Errorf("abstract word chapter = %d, want -1", stream[0].Chapter)
	}
	sawCh1 := false
	for _, fw := range stream {
		if fw.Chapter == 1 {
			sawCh1 = true
		}
	}
	if !sawCh1 {
		t.Error("no words attributed to chapter 1")
	}
}

func TestNextPrevStart(t *testing.T) {
	seg := mustParse(t, sampleDoc)
	stream := Flatten(seg)
	first := NextStart(stream, -1, UnitChapter)
	if first != 0 {
		t.Fatalf("first chapter start = %d, want 0", first)
	}
	second := NextStart(stream, first, UnitChapter)
	if second <= first {
		t.Fatalf("second chapter start = %d", second)
	}
	if got := PrevStart(stream, second, UnitChapter); got != first {
		t.Errorf("PrevStart = %d, want %d", got, first)
	}
	if got := NextStart(stream, len(stream), UnitChapter); got != -1 {
		t.Errorf("NextStart past end = %d, want -1", got)
	}
	if got := PrevStart(stream, 0, UnitChapter); got != -1 {
		t.Errorf("PrevStart before begin = %d, want -1", got)
	}
}

func TestCurrentStart(t *testing.T) {
	seg := mustParse(t, sampleDoc)
	stream := Flatten(seg)
	secondCh := NextStart(stream, 0, UnitChapter)
	mid := secondCh + 3
	if got := CurrentStart(stream, mid, UnitChapter); got != secondCh {
		t.Errorf("CurrentStart = %d, want %d", got, secondCh)
	}
	if got := CurrentStart(stream, len(stream)+100, UnitWord); got != len(stream)-1 {
		t.Errorf("CurrentStart clamped = %d, want %d", got, len(stream)-1)
	}
}

func TestNextPhrase(t *testing.T) {
	stream := Flatten(mustParse(t, "the small shadow is here. another small shadow appears. small print only.\n"))
	p1 := NextPhrase(stream, "small shadow", -1)
	if p1 != 1 {
		t.Fatalf("first phrase at %d, want 1", p1)
	}
	p2 := NextPhrase(stream, "small shadow", p1)
	if p2 != 6 {
		t.Fatalf("second phrase at %d, want 6", p2)
	}
	if p3 := NextPhrase(stream, "small shadow", p2); p3 != -1 {
		t.Fatalf("third phrase at %d", p3)
	}
	// The search is strictly after from, so a hit is never returned twice,
	// and any from before the stream starts at its first word.
	if p := NextPhrase(stream, "the small", -1); p != 0 {
		t.Fatalf("phrase at the first word found at %d", p)
	}
	if p := NextPhrase(stream, "the small", -7); p != 0 {
		t.Fatalf("from = -7: phrase at %d, want 0", p)
	}
	if p := NextPhrase(stream, "the small", 0); p != -1 {
		t.Fatalf("phrase at from returned again (%d)", p)
	}
	if p := NextPhrase(stream, "print only", len(stream)); p != -1 {
		t.Fatalf("from past the end matched at %d", p)
	}
	if p := NextPhrase(stream, "print only", -1); p != len(stream)-2 {
		t.Fatalf("phrase ending the stream at %d, want %d", p, len(stream)-2)
	}
	for _, empty := range []string{"", "   ", "... --"} {
		if p := NextPhrase(stream, empty, -1); p != -1 {
			t.Fatalf("pattern %q with no token matched at %d", empty, p)
		}
	}
}

func TestNextPhraseCaseAndPunct(t *testing.T) {
	stream := Flatten(mustParse(t, "The X-ray shows improvement.\n"))
	if p := NextPhrase(stream, "x-ray shows", -1); p != 1 {
		t.Fatalf("phrase at %d, want 1", p)
	}
	if p := NextPhrase(stream, "XRAY, Shows!", -1); p != 1 {
		t.Fatalf("normalized pattern at %d, want 1", p)
	}
}

func TestPhraseLongerThanStream(t *testing.T) {
	stream := Flatten(mustParse(t, "one two.\n"))
	if p := NextPhrase(stream, strings.Repeat("one two ", 4), -1); p != -1 {
		t.Fatalf("overlong phrase matched at %d", p)
	}
	if p := NextPhrase(nil, "one", -1); p != -1 {
		t.Fatalf("empty stream matched at %d", p)
	}
}

func TestUnitsIdentified(t *testing.T) {
	seg := mustParse(t, sampleDoc)
	units := UnitsIdentified(Flatten(seg))
	want := []Unit{UnitWord, UnitSentence, UnitParagraph, UnitSection, UnitChapter}
	if len(units) != len(want) {
		t.Fatalf("units = %v, want %v", units, want)
	}
	for i := range want {
		if units[i] != want[i] {
			t.Fatalf("units = %v, want %v", units, want)
		}
	}
}

func TestUnitsIdentifiedEmpty(t *testing.T) {
	units := UnitsIdentified(nil)
	if len(units) != 1 || units[0] != UnitWord {
		t.Fatalf("units of empty stream = %v, want [word]", units)
	}
}

func TestPlainString(t *testing.T) {
	seg := mustParse(t, ".chapter C\nOne two. Three!\n")
	stream := Flatten(seg)
	if got := PlainString(stream, 0, len(stream)); got != "One two. Three!" {
		t.Errorf("PlainString = %q", got)
	}
	if got := PlainString(stream, -5, 100); got != "One two. Three!" {
		t.Errorf("PlainString clamped = %q", got)
	}
}

func TestWordCount(t *testing.T) {
	seg := mustParse(t, sampleDoc)
	if got, want := seg.WordCount(), len(Flatten(seg)); got != want {
		t.Errorf("WordCount = %d, Flatten length = %d", got, want)
	}
}

func TestNormalizeToken(t *testing.T) {
	cases := map[string]string{
		"Hello,":   "hello",
		"(X-ray)":  "xray",
		"MINOS.":   "minos",
		"don't":    "dont",
		"1986":     "1986",
		"...":      "",
		"Überholt": "überholt",
	}
	for in, want := range cases {
		if got := NormalizeToken(in); got != want {
			t.Errorf("NormalizeToken(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEmphasisString(t *testing.T) {
	if got := Plain.String(); got != "plain" {
		t.Errorf("Plain.String() = %q", got)
	}
	if got := (Bold | Italic).String(); got != "bold|italic" {
		t.Errorf("(Bold|Italic).String() = %q", got)
	}
}

func TestUnitString(t *testing.T) {
	if UnitChapter.String() != "chapter" || UnitWord.String() != "word" {
		t.Error("Unit.String() mismatch")
	}
	if !strings.HasPrefix(Unit(99).String(), "Unit(") {
		t.Error("unknown unit string")
	}
}

// Property: for every stream and every unit, NextStart is strictly
// increasing and PrevStart inverts it.
func TestPropertyNextPrevInverse(t *testing.T) {
	seg := mustParse(t, sampleDoc)
	stream := Flatten(seg)
	for _, u := range []Unit{UnitWord, UnitSentence, UnitParagraph, UnitSection, UnitChapter} {
		pos := -1
		for {
			next := NextStart(stream, pos, u)
			if next == -1 {
				break
			}
			if next <= pos {
				t.Fatalf("unit %v: NextStart not increasing (%d -> %d)", u, pos, next)
			}
			if back := PrevStart(stream, next+1, u); back != next {
				t.Fatalf("unit %v: PrevStart(%d+1) = %d, want %d", u, next, back, next)
			}
			pos = next
		}
	}
}

// Property: parsing words that survive NormalizeToken round-trips through
// Flatten (quick-generated word lists).
func TestQuickFlattenPreservesWords(t *testing.T) {
	f := func(raw []string) bool {
		var clean []string
		for _, w := range raw {
			tok := NormalizeToken(w)
			if tok != "" {
				clean = append(clean, tok)
			}
		}
		if len(clean) == 0 {
			return true
		}
		src := ".chapter Q\n" + strings.Join(clean, " ") + ".\n"
		seg, err := Parse(src)
		if err != nil {
			return false
		}
		stream := Flatten(seg)
		if len(stream) != len(clean) {
			return false
		}
		for i := range clean {
			if stream[i].Word.Text != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every boundary mask implies containment — a chapter start is
// also a section, paragraph and sentence start.
func TestPropertyBoundaryContainment(t *testing.T) {
	seg := mustParse(t, sampleDoc)
	for i, fw := range Flatten(seg) {
		if fw.Starts(UnitChapter) && !fw.Starts(UnitSection) {
			t.Fatalf("word %d: chapter start without section start", i)
		}
		if fw.Starts(UnitSection) && !fw.Starts(UnitParagraph) {
			t.Fatalf("word %d: section start without paragraph start", i)
		}
		if fw.Starts(UnitParagraph) && !fw.Starts(UnitSentence) {
			t.Fatalf("word %d: paragraph start without sentence start", i)
		}
	}
}

func TestParseSizeTag(t *testing.T) {
	seg := mustParse(t, ".size big\nLarge heading text.\n.size normal\nBody follows here.\n")
	paras := seg.Chapters[0].Sections[0].Paragraphs
	if len(paras) != 2 {
		t.Fatalf("paragraphs = %d", len(paras))
	}
	if paras[0].Scale != 2 || paras[1].Scale != 1 {
		t.Fatalf("scales = %d, %d", paras[0].Scale, paras[1].Scale)
	}
	stream := Flatten(seg)
	if stream[0].Scale != 2 {
		t.Fatal("scale not carried to flat words")
	}
	if _, err := Parse(".size gigantic\n"); err == nil {
		t.Fatal("bad size accepted")
	}
}
