package index

import (
	"cmp"
	"slices"
	"strings"

	"minos/internal/object"
	"minos/internal/text"
)

// Doc is the unit the segmented index ingests: an object reduced to its id,
// attribute predicates (mode, date) and the normalized terms of its content
// — title fields, text stream words and recognized voice utterances all
// land in the same term space, which is what keeps retrieval symmetric
// across media (§2).
type Doc struct {
	ID   object.ID
	Mode object.Mode
	// Date is the ordinal-encoded archive date (see ParseDate); 0 when
	// the object carries none.
	Date uint32
	// Terms are normalized tokens; duplicates are allowed and collapse
	// to one posting.
	Terms []string
}

// Config shapes a segmented index store.
type Config struct {
	// MemtableDocs is the seal threshold: the memtable seals into an
	// immutable segment when it reaches this many docs. Default 4096.
	MemtableDocs int
	// MergeFanIn triggers a background merge when at least this many
	// small segments (< 2x MemtableDocs docs) exist. Default 8.
	MergeFanIn int
}

func (c Config) withDefaults() Config {
	if c.MemtableDocs <= 0 {
		c.MemtableDocs = 4096
	}
	if c.MergeFanIn < 2 {
		c.MergeFanIn = 8
	}
	return c
}

// builder accumulates docs into a mutable memtable and seals them into a
// segment. It doubles as the store's live memtable (queries read it under
// the store's memtable lock) and as the per-worker state of the parallel
// bulk build. All storage is reused across reset() so the steady-state
// add() path — the hot tokenize/post path of a publish — allocates nothing
// (guarded by TestAllocBuilderAdd).
type builder struct {
	ids   []object.ID
	modes []object.Mode
	dates []uint32
	byID  map[object.ID]int32

	terms    map[string]*postList
	postings int

	// seal scratch, reused.
	perm     []int32
	remap    []uint32
	nameBuf  []string
	partsBuf []partTerm
}

type postList struct{ ords []uint32 }

func newBuilder() *builder {
	return &builder{
		byID:  make(map[object.ID]int32),
		terms: make(map[string]*postList),
	}
}

func (b *builder) docs() int { return len(b.ids) }

// add indexes one doc; it reports false (and does nothing) when the id is
// already present. The caller owns d; nothing in it is retained except the
// term strings themselves.
func (b *builder) add(d *Doc) bool {
	if _, dup := b.byID[d.ID]; dup {
		return false
	}
	ord := uint32(len(b.ids))
	b.byID[d.ID] = int32(ord)
	b.ids = append(b.ids, d.ID)
	b.modes = append(b.modes, d.Mode)
	b.dates = append(b.dates, d.Date)
	for _, t := range d.Terms {
		if t == "" {
			continue
		}
		pl := b.terms[t]
		if pl == nil {
			pl = &postList{}
			b.terms[t] = pl
		}
		if n := len(pl.ords); n > 0 && pl.ords[n-1] == ord {
			continue // duplicate within this doc
		}
		pl.ords = append(pl.ords, ord)
		b.postings++
	}
	return true
}

// reset clears the builder for the next memtable while keeping every map
// bucket and slice capacity warm.
func (b *builder) reset() {
	b.ids = b.ids[:0]
	b.modes = b.modes[:0]
	b.dates = b.dates[:0]
	clear(b.byID)
	for _, pl := range b.terms {
		pl.ords = pl.ords[:0]
	}
	b.postings = 0
}

// seal encodes the memtable into a segment file: docs sorted by id, terms
// sorted bytewise, ordinals remapped accordingly. The output depends only
// on the set of docs added, never on their order.
func (b *builder) seal() []byte {
	n := len(b.ids)
	b.perm = b.perm[:0]
	for i := 0; i < n; i++ {
		b.perm = append(b.perm, int32(i))
	}
	slices.SortFunc(b.perm, func(x, y int32) int { return cmp.Compare(b.ids[x], b.ids[y]) })
	b.remap = b.remap[:0]
	for range b.perm {
		b.remap = append(b.remap, 0)
	}
	for newOrd, oldOrd := range b.perm {
		b.remap[oldOrd] = uint32(newOrd)
	}

	parts := segParts{
		ids:   make([]object.ID, n),
		modes: make([]object.Mode, n),
		dates: make([]uint32, n),
	}
	for newOrd, oldOrd := range b.perm {
		parts.ids[newOrd] = b.ids[oldOrd]
		parts.modes[newOrd] = b.modes[oldOrd]
		parts.dates[newOrd] = b.dates[oldOrd]
	}

	b.nameBuf = b.nameBuf[:0]
	for name, pl := range b.terms {
		if len(pl.ords) > 0 {
			b.nameBuf = append(b.nameBuf, name)
		}
	}
	slices.Sort(b.nameBuf)
	b.partsBuf = b.partsBuf[:0]
	for _, name := range b.nameBuf {
		ords := b.terms[name].ords
		mapped := make([]uint32, len(ords))
		for i, o := range ords {
			mapped[i] = b.remap[o]
		}
		slices.Sort(mapped)
		b.partsBuf = append(b.partsBuf, partTerm{name: []byte(name), ords: mapped})
	}
	parts.terms = b.partsBuf
	return encodeParts(&parts)
}

// DocFromObject reduces an object to its indexable Doc, appending terms to
// d.Terms (reset to [:0] first): title, attribute and heading words, text
// stream words and recognized voice utterances — one term space for both
// media (§2) — plus the date attribute parsed into d.Date. It is the only
// object-to-terms walk in the system.
func DocFromObject(o *object.Object, d *Doc) {
	d.ID = o.ID
	d.Mode = o.Mode
	d.Date = 0
	if s, ok := o.Attrs["date"]; ok {
		if dt, err := ParseDate(s); err == nil {
			d.Date = dt
		}
	}
	d.Terms = d.Terms[:0]
	addWords := func(s string) {
		for _, f := range strings.Fields(s) {
			if tok := text.NormalizeToken(f); tok != "" {
				d.Terms = append(d.Terms, tok)
			}
		}
	}
	addWords(o.Title)
	for _, v := range o.Attrs {
		addWords(v)
	}
	for _, seg := range o.Text {
		addWords(seg.Title)
		for _, ch := range seg.Chapters {
			addWords(ch.Title)
			for _, sec := range ch.Sections {
				addWords(sec.Title)
			}
		}
	}
	for _, fw := range o.Stream() {
		if tok := text.NormalizeToken(fw.Word.Text); tok != "" {
			d.Terms = append(d.Terms, tok)
		}
	}
	for _, vp := range o.Voice {
		for _, u := range vp.Utterances {
			if u.Token != "" {
				d.Terms = append(d.Terms, u.Token)
			}
		}
	}
}
