package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"minos/internal/object"
	"minos/internal/pool"
)

// The segmented index (DESIGN.md §12) stores the content index as a set of
// sealed, immutable segment files. Each segment covers a disjoint set of
// objects and is fully self-contained: a sorted doc table (object id, media
// mode, date) for attribute predicates and a sorted term dictionary whose
// postings are delta-encoded doc ordinals in skip blocks — the one access
// path a query takes (planner.go).
// Sealed segments never change — the same WORM argument that makes shard
// replicas trivially consistent (DESIGN.md §9) applies: a replica serving
// the same sealed segment serves it byte-identically.
//
// Segment layout (big-endian):
//
//	magic        "MSG2"
//	version      u8  (2)
//	docCount     u32
//	doc table    docCount x { id u64, mode u8, date u32 }   (ids strictly ascending)
//	termCount    u32
//	dictionary   termCount x { len u16, bytes, postings u32, postBytes u32 }
//	             (terms strictly ascending, bytewise)
//	postings     termCount x { skip table, delta bytes }  in dictionary order
//
// A term's postings are strictly ascending doc ordinals, uvarint
// delta-encoded in blocks of skipBlock entries. Each block is preceded in
// the skip table by { lastOrd u32, endOff u32 } (endOff relative to the
// term's delta bytes), so seekGE can binary-search the skip table and
// decode at most one block. Deltas are taken against the previous block's
// lastOrd (-1 for the first block), so every delta is >= 1 and each block
// decodes independently.
//
// The magic names the layout: an MSG1 blob (whose header and per-doc
// signature block this layout dropped) is rejected, never misparsed.

const (
	segMagic   = "MSG2"
	segVersion = 2
	// segHeader is the fixed prefix before the doc table.
	segHeader = 4 + 1 + 4
	// segDocEntry is the doc-table entry size: id u64, mode u8, date u32.
	segDocEntry = 13
	// skipBlock is the posting count per skip block.
	skipBlock = 128
	// segMinTermEntry is the smallest possible dictionary entry.
	segMinTermEntry = 2 + 4 + 4
)

// Segment is one sealed, immutable index segment. All fields are read-only
// after ParseSegment; a Segment may be shared freely across goroutines.
type Segment struct {
	blob []byte

	ids   []object.ID
	modes []object.Mode
	dates []uint32

	terms    []termEntry
	postings int
}

// termEntry locates one dictionary term inside the segment blob.
type termEntry struct {
	nameOff uint32
	nameLen uint32
	count   uint32 // posting count
	skipOff uint32 // absolute offset of the skip table
	skipN   uint32
	postOff uint32 // absolute offset of the delta bytes
	postLen uint32
}

// Docs returns the number of objects the segment covers.
func (g *Segment) Docs() int { return len(g.ids) }

// Terms returns the number of distinct terms in the dictionary.
func (g *Segment) Terms() int { return len(g.terms) }

// Postings returns the total posting count.
func (g *Segment) Postings() int { return g.postings }

// Bytes returns the sealed segment file. Callers must not modify it.
func (g *Segment) Bytes() []byte { return g.blob }

// name returns the dictionary bytes of term t.
func (g *Segment) name(t *termEntry) []byte {
	return g.blob[t.nameOff : t.nameOff+t.nameLen]
}

// findTerm binary-searches the dictionary. It allocates nothing.
func (g *Segment) findTerm(tok string) *termEntry {
	lo, hi := 0, len(g.terms)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpBytesStr(g.name(&g.terms[mid]), tok) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.terms) && cmpBytesStr(g.name(&g.terms[lo]), tok) == 0 {
		return &g.terms[lo]
	}
	return nil
}

// contains reports whether the segment's doc table has the id.
func (g *Segment) contains(id object.ID) bool {
	_, ok := slices.BinarySearch(g.ids, id)
	return ok
}

// cmpBytesStr compares b to s without converting either.
func cmpBytesStr(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// postingIter walks one term's posting list. The zero value is empty; reset
// positions it before the first posting. It is a value type and allocates
// nothing.
type postingIter struct {
	skips []byte // skip table, skipN x 8 bytes
	data  []byte // delta bytes
	n     int    // total postings

	idx   int    // postings consumed
	off   int    // byte offset into data
	block int    // current block index
	prev  int64  // previous ordinal (-1 before the first)
	cur   uint32 // last ordinal returned
}

func (it *postingIter) reset(g *Segment, t *termEntry) {
	it.skips = g.blob[t.skipOff : t.skipOff+8*t.skipN]
	it.data = g.blob[t.postOff : t.postOff+t.postLen]
	it.n = int(t.count)
	it.idx, it.off, it.block = 0, 0, 0
	it.prev, it.cur = -1, 0
}

func (it *postingIter) skipLastOrd(i int) uint32 {
	return binary.BigEndian.Uint32(it.skips[i*8:])
}

func (it *postingIter) skipEndOff(i int) uint32 {
	return binary.BigEndian.Uint32(it.skips[i*8+4:])
}

// next returns the next ordinal, or false when the list is exhausted.
func (it *postingIter) next() (uint32, bool) {
	if it.idx >= it.n {
		return 0, false
	}
	d, w := uvarint(it.data[it.off:])
	if w <= 0 || d == 0 {
		// A sealed segment never decodes here (ParseSegment walked every
		// posting); treat corruption as end-of-list rather than panicking.
		it.idx = it.n
		return 0, false
	}
	it.off += w
	it.prev += int64(d)
	it.cur = uint32(it.prev)
	it.idx++
	if it.idx%skipBlock == 0 {
		it.block = it.idx / skipBlock
	}
	return it.cur, true
}

// seekGE advances to the first ordinal >= t, binary-searching the skip
// table so at most one block is decoded. It may only move forward.
func (it *postingIter) seekGE(t uint32) (uint32, bool) {
	if it.idx > 0 && it.cur >= t {
		return it.cur, true
	}
	if it.idx >= it.n {
		return 0, false
	}
	// First block whose lastOrd >= t.
	nBlocks := (it.n + skipBlock - 1) / skipBlock
	lo, hi := it.block, nBlocks
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if it.skipLastOrd(mid) < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= nBlocks {
		it.idx = it.n
		return 0, false
	}
	if lo > it.block {
		// Jump: the block starts where the previous one ended.
		it.block = lo
		it.idx = lo * skipBlock
		if lo == 0 {
			it.off, it.prev = 0, -1
		} else {
			it.off = int(it.skipEndOff(lo - 1))
			it.prev = int64(it.skipLastOrd(lo - 1))
		}
	}
	for {
		v, ok := it.next()
		if !ok {
			return 0, false
		}
		if v >= t {
			return v, true
		}
	}
}

// uvarint is binary.Uvarint restricted to 32-bit values; it returns w <= 0
// on truncated or oversized input.
func uvarint(b []byte) (uint64, int) {
	var v uint64
	var s uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			v |= uint64(c) << s
			if v > 0xFFFFFFFF {
				return 0, -1
			}
			return v, i + 1
		}
		v |= uint64(c&0x7F) << s
		s += 7
		if s > 35 {
			return 0, -1
		}
	}
	return 0, 0
}

// segParts is the pre-encoding form of a segment: sorted docs and the
// sorted term -> ordinal lists. Both the memtable seal and the background
// merge produce one.
type segParts struct {
	ids   []object.ID
	modes []object.Mode
	dates []uint32
	terms []partTerm
}

type partTerm struct {
	name []byte
	ords []uint32
}

// encodeParts seals the parts into a segment file. The doc table must be
// strictly ascending by id and the terms strictly ascending by name; every
// ordinal list must be strictly ascending. The output depends only on the
// parts — never on timing or scheduling — which is what makes sealed
// segments bit-identical per corpus.
func encodeParts(p *segParts) []byte {
	// Stage the delta bytes first (into a pooled buffer) so the dictionary
	// can record exact postBytes, then assemble the blob in one pass.
	staging := pool.Bytes.Get(1 << 12)[:0]
	defer pool.Bytes.Put(staging)
	type stagedTerm struct {
		post0, post1 int // extent in staging
		skip0, skip1 int // extent in skips
	}
	staged := make([]stagedTerm, len(p.terms))
	var skips []uint32 // flattened {lastOrd, endOff} pairs
	for ti := range p.terms {
		ords := p.terms[ti].ords
		st := stagedTerm{post0: len(staging), skip0: len(skips)}
		prev := int64(-1)
		base := len(staging)
		for i, ord := range ords {
			staging = binary.AppendUvarint(staging, uint64(int64(ord)-prev))
			prev = int64(ord)
			if (i+1)%skipBlock == 0 || i == len(ords)-1 {
				skips = append(skips, ord, uint32(len(staging)-base))
			}
		}
		st.post1 = len(staging)
		st.skip1 = len(skips)
		staged[ti] = st
	}

	size := segHeader + segDocEntry*len(p.ids) + 4
	for ti := range p.terms {
		size += 2 + len(p.terms[ti].name) + 4 + 4
		size += 4*(staged[ti].skip1-staged[ti].skip0) + (staged[ti].post1 - staged[ti].post0)
	}

	out := make([]byte, 0, size)
	out = append(out, segMagic...)
	out = append(out, segVersion)
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.ids)))
	for i, id := range p.ids {
		out = binary.BigEndian.AppendUint64(out, uint64(id))
		out = append(out, byte(p.modes[i]))
		out = binary.BigEndian.AppendUint32(out, p.dates[i])
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.terms)))
	for ti := range p.terms {
		out = binary.BigEndian.AppendUint16(out, uint16(len(p.terms[ti].name)))
		out = append(out, p.terms[ti].name...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(p.terms[ti].ords)))
		out = binary.BigEndian.AppendUint32(out, uint32(staged[ti].post1-staged[ti].post0))
	}
	for ti := range p.terms {
		for i := staged[ti].skip0; i < staged[ti].skip1; i++ {
			out = binary.BigEndian.AppendUint32(out, skips[i])
		}
		out = append(out, staging[staged[ti].post0:staged[ti].post1]...)
	}
	return out
}

// ParseSegment validates a segment file and builds its in-memory views.
// Every count is checked against the remaining bytes before anything is
// sized from it, and every posting is decoded once so queries can iterate
// without error paths. The blob is retained; callers must not modify it.
func ParseSegment(blob []byte) (*Segment, error) {
	if len(blob) < segHeader {
		return nil, fmt.Errorf("index: segment short header (%d bytes)", len(blob))
	}
	if string(blob[:4]) != segMagic {
		return nil, fmt.Errorf("index: bad segment magic")
	}
	if blob[4] != segVersion {
		return nil, fmt.Errorf("index: unsupported segment version %d", blob[4])
	}
	docCount := int(binary.BigEndian.Uint32(blob[5:]))
	pos := segHeader
	rest := len(blob) - pos
	if docCount > rest/segDocEntry {
		return nil, fmt.Errorf("index: doc count %d exceeds segment size", docCount)
	}
	g := &Segment{
		blob:  blob,
		ids:   make([]object.ID, docCount),
		modes: make([]object.Mode, docCount),
		dates: make([]uint32, docCount),
	}
	for i := 0; i < docCount; i++ {
		id := object.ID(binary.BigEndian.Uint64(blob[pos:]))
		mode := blob[pos+8]
		if i > 0 && id <= g.ids[i-1] {
			return nil, fmt.Errorf("index: doc table not strictly ascending at %d", i)
		}
		if mode > uint8(object.Audio) {
			return nil, fmt.Errorf("index: doc %d has invalid mode %d", i, mode)
		}
		g.ids[i] = id
		g.modes[i] = object.Mode(mode)
		g.dates[i] = binary.BigEndian.Uint32(blob[pos+9:])
		pos += segDocEntry
	}
	if len(blob)-pos < 4 {
		return nil, fmt.Errorf("index: segment truncated before dictionary")
	}
	termCount := int(binary.BigEndian.Uint32(blob[pos:]))
	pos += 4
	if termCount > (len(blob)-pos)/segMinTermEntry {
		return nil, fmt.Errorf("index: term count %d exceeds segment size", termCount)
	}
	g.terms = make([]termEntry, termCount)
	for ti := 0; ti < termCount; ti++ {
		if len(blob)-pos < 2 {
			return nil, fmt.Errorf("index: dictionary truncated at term %d", ti)
		}
		nameLen := int(binary.BigEndian.Uint16(blob[pos:]))
		pos += 2
		if nameLen == 0 || nameLen > len(blob)-pos {
			return nil, fmt.Errorf("index: term %d name length %d out of range", ti, nameLen)
		}
		nameOff := pos
		pos += nameLen
		if len(blob)-pos < 8 {
			return nil, fmt.Errorf("index: dictionary truncated at term %d", ti)
		}
		count := binary.BigEndian.Uint32(blob[pos:])
		postLen := binary.BigEndian.Uint32(blob[pos+4:])
		pos += 8
		if count == 0 || uint64(count) > uint64(docCount) {
			return nil, fmt.Errorf("index: term %d posting count %d out of range", ti, count)
		}
		if uint64(postLen) > uint64(len(blob)) {
			return nil, fmt.Errorf("index: term %d posting bytes %d out of range", ti, postLen)
		}
		t := &g.terms[ti]
		t.nameOff = uint32(nameOff)
		t.nameLen = uint32(nameLen)
		t.count = count
		t.skipN = (count + skipBlock - 1) / skipBlock
		t.postLen = postLen
		if ti > 0 {
			prev := &g.terms[ti-1]
			if bytes.Compare(g.name(prev), g.name(t)) >= 0 {
				return nil, fmt.Errorf("index: dictionary not strictly ascending at term %d", ti)
			}
		}
		g.postings += int(count)
	}
	// Locate and validate the postings areas.
	for ti := range g.terms {
		t := &g.terms[ti]
		need := int(8*t.skipN) + int(t.postLen)
		if need > len(blob)-pos {
			return nil, fmt.Errorf("index: postings truncated at term %d", ti)
		}
		t.skipOff = uint32(pos)
		pos += int(8 * t.skipN)
		t.postOff = uint32(pos)
		pos += int(t.postLen)
		if err := g.validatePostings(t); err != nil {
			return nil, fmt.Errorf("index: term %d: %w", ti, err)
		}
	}
	if pos != len(blob) {
		return nil, fmt.Errorf("index: %d trailing bytes after postings", len(blob)-pos)
	}
	return g, nil
}

// validatePostings decodes every posting of the term once, checking that
// ordinals are strictly ascending, in range, and consistent with the skip
// table. After this, query iterators never see malformed input.
func (g *Segment) validatePostings(t *termEntry) error {
	data := g.blob[t.postOff : t.postOff+t.postLen]
	skips := g.blob[t.skipOff : t.skipOff+8*t.skipN]
	prev := int64(-1)
	off := 0
	base := 0
	for i := 0; i < int(t.count); i++ {
		d, w := uvarint(data[off:])
		if w <= 0 || d == 0 {
			return fmt.Errorf("bad posting delta at %d", i)
		}
		off += w
		prev += int64(d)
		if prev >= int64(len(g.ids)) {
			return fmt.Errorf("posting ordinal %d out of range", prev)
		}
		if (i+1)%skipBlock == 0 || i == int(t.count)-1 {
			bi := i / skipBlock
			lastOrd := binary.BigEndian.Uint32(skips[bi*8:])
			endOff := binary.BigEndian.Uint32(skips[bi*8+4:])
			if uint32(prev) != lastOrd {
				return fmt.Errorf("skip entry %d lastOrd %d != %d", bi, lastOrd, prev)
			}
			if int(endOff) != off-base {
				return fmt.Errorf("skip entry %d endOff %d != %d", bi, endOff, off-base)
			}
		}
	}
	if off != len(data) {
		return fmt.Errorf("%d trailing posting bytes", len(data)-off)
	}
	return nil
}
