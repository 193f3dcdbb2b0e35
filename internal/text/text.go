// Package text implements the text part of a MINOS multimedia object.
//
// Per the paper (§2), a text segment is logically subdivided into title,
// abstract, chapters, sections, paragraphs, sentences and words, and these
// subdivisions are identified from the tags the user inserts to format the
// text. This package provides:
//
//   - the logical model (Segment → Chapter → Section → Paragraph →
//     Sentence → Word),
//   - a parser for the MINOS formatting tag language (see Parse),
//   - flattening of a segment into a linear word stream with boundary
//     marks, which is what pagination and symmetric browsing operate on,
//   - logical navigation (next/previous chapter, section, paragraph,
//     sentence, word) and phrase search (NextPhrase) over the flattened
//     stream.
package text

import (
	"fmt"
	"strings"
)

// Emphasis describes the visual emphasis carried by a word. The paper notes
// that in text "emphasis and meaning aspects are expressed by some special
// symbols as well as by some conventions such as underlined words, tilted
// words, bold tones" — these map to the flags below.
type Emphasis uint8

const (
	Plain     Emphasis = 0
	Bold      Emphasis = 1 << iota
	Underline Emphasis = 1 << iota
	Italic    Emphasis = 1 << iota
)

// String returns a compact human-readable form such as "bold|underline".
func (e Emphasis) String() string {
	if e == Plain {
		return "plain"
	}
	var parts []string
	if e&Bold != 0 {
		parts = append(parts, "bold")
	}
	if e&Underline != 0 {
		parts = append(parts, "underline")
	}
	if e&Italic != 0 {
		parts = append(parts, "italic")
	}
	return strings.Join(parts, "|")
}

// Word is the smallest logical text unit.
type Word struct {
	Text string
	Emph Emphasis
}

// Sentence is a run of words ended by a terminator symbol. The terminator
// conveys the emphasis/meaning the paper attributes to special symbols
// (., !, ?).
type Sentence struct {
	Words      []Word
	Terminator rune // '.', '!', '?' or 0 for an unterminated trailing run
}

// Paragraph groups sentences and carries formatting state.
type Paragraph struct {
	Sentences []Sentence
	Indent    int // leading indent in character cells
	// Scale is the letter-size multiplier (1 = normal, 2 = double); the
	// paper's formatter supports "various character fonts, letter sizes"
	// (§3).
	Scale int
}

// Section groups paragraphs under an optional heading.
type Section struct {
	Title      string
	Paragraphs []Paragraph
}

// Chapter groups sections.
type Chapter struct {
	Title    string
	Sections []Section
}

// Segment is one text segment of a multimedia object: title, abstract,
// chapters, references (paper §2).
type Segment struct {
	Title      string
	Abstract   []Paragraph
	Chapters   []Chapter
	References []Paragraph
}

// WordCount returns the total number of words in the segment body
// (abstract, chapters and references; headings excluded).
func (s *Segment) WordCount() int {
	n := 0
	for _, p := range s.Abstract {
		n += paragraphWords(p)
	}
	for _, c := range s.Chapters {
		for _, sec := range c.Sections {
			for _, p := range sec.Paragraphs {
				n += paragraphWords(p)
			}
		}
	}
	for _, p := range s.References {
		n += paragraphWords(p)
	}
	return n
}

func paragraphWords(p Paragraph) int {
	n := 0
	for _, s := range p.Sentences {
		n += len(s.Words)
	}
	return n
}

// Unit identifies a logical unit level for navigation. The ordering is from
// the finest (UnitWord) to the coarsest (UnitChapter); browsing menus offer
// only the units the object's structure actually identifies.
type Unit uint8

const (
	UnitWord Unit = iota
	UnitSentence
	UnitParagraph
	UnitSection
	UnitChapter
)

// String returns the unit name as used in menu options.
func (u Unit) String() string {
	switch u {
	case UnitWord:
		return "word"
	case UnitSentence:
		return "sentence"
	case UnitParagraph:
		return "paragraph"
	case UnitSection:
		return "section"
	case UnitChapter:
		return "chapter"
	}
	return fmt.Sprintf("Unit(%d)", uint8(u))
}

// Boundary marks that a flattened word starts a logical unit of each level
// at or below the recorded one (a chapter start is also a section,
// paragraph, sentence and word start).
type Boundary uint8

const (
	StartsSentence Boundary = 1 << iota
	StartsParagraph
	StartsSection
	StartsChapter
)

// FlatWord is one element of the flattened word stream.
type FlatWord struct {
	Word     Word
	Bounds   Boundary
	Chapter  int // 0-based chapter index, -1 for abstract/references
	Section  int // 0-based section index within the chapter, -1 if n/a
	EndsWith rune
	// Scale is the paragraph's letter-size multiplier (0 and 1 both mean
	// normal size).
	Scale int
}

// Starts reports whether this word begins a unit of the given level.
// Every word starts a UnitWord.
func (f FlatWord) Starts(u Unit) bool {
	switch u {
	case UnitWord:
		return true
	case UnitSentence:
		return f.Bounds&StartsSentence != 0
	case UnitParagraph:
		return f.Bounds&StartsParagraph != 0
	case UnitSection:
		return f.Bounds&StartsSection != 0
	case UnitChapter:
		return f.Bounds&StartsChapter != 0
	}
	return false
}

// Flatten converts the segment body into the linear word stream used for
// pagination, browsing, and indexing. Chapter and section headings are not
// part of the stream; their boundaries are carried by the first body word
// that follows them. The abstract precedes chapter 0; references follow the
// last chapter and begin a paragraph boundary.
func Flatten(s *Segment) []FlatWord {
	var out []FlatWord
	appendParas := func(paras []Paragraph, chapter, section int, firstBound Boundary) {
		for pi, p := range paras {
			for si, sent := range p.Sentences {
				for wi, w := range sent.Words {
					var b Boundary
					if wi == 0 {
						b |= StartsSentence
						if si == 0 {
							b |= StartsParagraph
							if pi == 0 {
								b |= firstBound
							}
						}
					}
					fw := FlatWord{Word: w, Bounds: b, Chapter: chapter, Section: section, Scale: p.Scale}
					if wi == len(sent.Words)-1 {
						fw.EndsWith = sent.Terminator
					}
					out = append(out, fw)
				}
			}
		}
	}
	appendParas(s.Abstract, -1, -1, StartsSection|StartsChapter)
	for ci, c := range s.Chapters {
		for sci, sec := range c.Sections {
			bound := StartsSection
			if sci == 0 {
				bound |= StartsChapter
			}
			appendParas(sec.Paragraphs, ci, sci, bound)
		}
	}
	appendParas(s.References, -1, -1, StartsSection|StartsChapter)
	return out
}

// NextStart returns the index of the first word at or after from+1 that
// starts a unit of level u, or -1 if there is none. This implements the
// "next chapter / next section / ..." browsing commands.
func NextStart(stream []FlatWord, from int, u Unit) int {
	for i := from + 1; i < len(stream); i++ {
		if stream[i].Starts(u) {
			return i
		}
	}
	return -1
}

// PrevStart returns the index of the last word strictly before from that
// starts a unit of level u, or -1 if there is none.
func PrevStart(stream []FlatWord, from int, u Unit) int {
	if from > len(stream) {
		from = len(stream)
	}
	for i := from - 1; i >= 0; i-- {
		if stream[i].Starts(u) {
			return i
		}
	}
	return -1
}

// CurrentStart returns the index of the start of the unit of level u that
// contains position at (the greatest start ≤ at), or -1.
func CurrentStart(stream []FlatWord, at int, u Unit) int {
	if at >= len(stream) {
		at = len(stream) - 1
	}
	for i := at; i >= 0; i-- {
		if stream[i].Starts(u) {
			return i
		}
	}
	return -1
}

// NextPhrase returns the first word index > from at which the pattern's
// normalized tokens occur consecutively in the stream, or -1 if there is
// none (or the pattern holds no token). This is the text half of pattern
// browsing (§2), symmetric with voice.NextUtterance.
func NextPhrase(stream []FlatWord, pattern string, from int) int {
	var toks []string
	for _, f := range strings.Fields(pattern) {
		if t := NormalizeToken(f); t != "" {
			toks = append(toks, t)
		}
	}
	if len(toks) == 0 {
		return -1
	}
	for i := max(from+1, 0); i+len(toks) <= len(stream); i++ {
		if phraseAt(stream[i:], toks) {
			return i
		}
	}
	return -1
}

// phraseAt reports whether the stream opens with the tokens; the caller
// guarantees len(stream) >= len(toks).
func phraseAt(stream []FlatWord, toks []string) bool {
	for k, tok := range toks {
		if NormalizeToken(stream[k].Word.Text) != tok {
			return false
		}
	}
	return true
}

// UnitsIdentified reports which logical unit levels are present in the
// stream beyond the trivial word level. The presentation manager uses this
// to decide which menu options to display (paper §2: "the logical browsing
// options that are available to the user in MINOS depend on the object").
func UnitsIdentified(stream []FlatWord) []Unit {
	units := []Unit{UnitWord}
	have := map[Unit]bool{}
	for _, fw := range stream {
		if fw.Bounds&StartsSentence != 0 {
			have[UnitSentence] = true
		}
		if fw.Bounds&StartsParagraph != 0 {
			have[UnitParagraph] = true
		}
		if fw.Bounds&StartsSection != 0 {
			have[UnitSection] = true
		}
		if fw.Bounds&StartsChapter != 0 {
			have[UnitChapter] = true
		}
	}
	for _, u := range []Unit{UnitSentence, UnitParagraph, UnitSection, UnitChapter} {
		if have[u] {
			units = append(units, u)
		}
	}
	return units
}

// PlainString reconstructs a whitespace-joined plain string of the word
// stream between [from, to); useful for tests and for indexing.
func PlainString(stream []FlatWord, from, to int) string {
	if from < 0 {
		from = 0
	}
	if to > len(stream) {
		to = len(stream)
	}
	var b strings.Builder
	for i := from; i < to; i++ {
		if i > from {
			b.WriteByte(' ')
		}
		b.WriteString(stream[i].Word.Text)
		if stream[i].EndsWith != 0 {
			b.WriteRune(stream[i].EndsWith)
		}
	}
	return b.String()
}
