package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/pool"
)

// Id lists — the answers to OpQueryPlanned and OpList — travel packed:
//
//	[count u32][uvarint first][uvarint gap]...   gap = id[i] - id[i-1] >= 1
//
// Both sources are strictly ascending (the content index and the archiver
// directory), so a gap is never zero and a dense result costs one or two
// bytes an id rather than eight. The decoder trusts nothing: a truncated
// varint, a zero gap, a sum past 2^64-1, a count larger than the bytes that
// follow it and trailing bytes are all rejected as a damaged frame.
//
// Ownership: an IDList aliases the response frame it arrived in. The one
// copy of the ids a client makes is the slice MergeIDLists returns; the
// merge then hands every frame back to the buffer pool.

// IDList is one server's validated, packed id list: count ids, strictly
// ascending, still in the response frame they arrived in. The zero value is
// an empty list.
type IDList struct {
	n     int    // ids in the list
	body  []byte // the packed ids after the count
	frame []byte // the whole response, recycled by MergeIDLists
}

// idListSize is the exact encoded size of ids, so the response buffer is
// taken from the pool at the size class it will fill.
func idListSize(ids []object.ID) int {
	n := 4
	var prev uint64
	for _, id := range ids {
		n += (bits.Len64((uint64(id)-prev)|1) + 6) / 7
		prev = uint64(id)
	}
	return n
}

// appendIDList appends ids, which must be strictly ascending, in the packed
// layout. The first id is coded as its gap from zero.
func appendIDList(b []byte, ids []object.ID) []byte {
	b = appendU32(b, uint32(len(ids)))
	var prev uint64
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id)-prev)
		prev = uint64(id)
	}
	return b
}

// parseIDList validates payload, the body of response frame, as a packed id
// list. Errors wrap ErrShort: a list that does not parse is a damaged frame.
func parseIDList(frame, payload []byte) (IDList, error) {
	c := &cursor{data: payload}
	n, err := c.u32()
	if err != nil {
		return IDList{}, err
	}
	body := c.rest()
	// Every id takes at least one byte: a larger count is a lie, refused
	// before it can size anything.
	if uint64(n) > uint64(len(body)) {
		return IDList{}, fmt.Errorf("%w: id list claims %d ids in %d bytes", ErrShort, n, len(body))
	}
	var prev uint64
	pos := 0
	for i := 0; i < int(n); i++ {
		// Gaps under 2^14 — nearly all of them — are decoded inline.
		var v uint64
		if pos < len(body) && body[pos] < 0x80 {
			v = uint64(body[pos])
			pos++
		} else if pos+1 < len(body) && body[pos+1] < 0x80 {
			v = uint64(body[pos]&0x7f) | uint64(body[pos+1])<<7
			pos += 2
		} else {
			var k int
			if v, k = binary.Uvarint(body[pos:]); k <= 0 { // 0: truncated; < 0: wider than 64 bits
				return IDList{}, fmt.Errorf("%w: id list entry %d is not a varint", ErrShort, i)
			}
			pos += k
		}
		if i > 0 && v == 0 {
			return IDList{}, fmt.Errorf("%w: id list repeats id %d", ErrShort, prev)
		}
		if v > math.MaxUint64-prev {
			return IDList{}, fmt.Errorf("%w: id list overflows at entry %d", ErrShort, i)
		}
		prev += v
	}
	if pos != len(body) {
		return IDList{}, fmt.Errorf("%w: id list has %d trailing bytes", ErrShort, len(body)-pos)
	}
	return IDList{n: int(n), body: body, frame: frame}, nil
}

// IDListCtx fetches one server's packed id list, bounded by ctx: the ids
// matching q (OpQueryPlanned), or every published id when q is nil
// (OpList). Nothing is decoded yet; MergeIDLists does that once for every
// list a call gathered.
func (c *Client) IDListCtx(ctx context.Context, q *index.Query) (IDList, time.Duration, error) {
	var req []byte
	switch {
	case q == nil:
		req = []byte{OpList}
	case len(q.Terms) > MaxQueryTerms:
		return IDList{}, 0, fmt.Errorf("wire: query of %d terms exceeds %d", len(q.Terms), MaxQueryTerms)
	default:
		req = encodeQueryPlannedReq(*q)
	}
	resp, payload, dur, err := c.exchangeCtx(ctx, req)
	if err != nil {
		return IDList{}, dur, err
	}
	l, err := parseIDList(resp, payload)
	return l, dur, err
}

// idHead is one list's position in a merge: its current id, how many ids
// are left counting that one, and where the next gap starts in body.
type idHead struct {
	v    uint64
	n    int
	pos  int
	body []byte
}

// advance moves past the current id. The list was validated, so every gap
// is a well-formed varint and the sum stays in range. A head set up with
// one id too many and v = 0 decodes its first id on its first advance.
func (h *idHead) advance() {
	if h.n--; h.n > 0 {
		for shift := uint(0); ; shift += 7 {
			b := h.body[h.pos]
			h.pos++
			h.v += uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
		}
	}
}

// MergeIDLists merges the lists — each strictly ascending, typically one
// per shard — into one ascending slice, keeping one copy of an id found in
// several (shards partition the corpus, so overlap only appears while an
// object is caught on both sides of a resharding). The ids are decoded
// straight off the response frames into a slice allocated once, at the sum
// of the lists' counts. MergeIDLists consumes its arguments: each list's
// frame goes back to the buffer pool, so a list is merged exactly once.
func MergeIDLists(lists ...IDList) []object.ID {
	total := 0
	for _, l := range lists {
		total += l.n
	}
	var out []object.ID
	if total > 0 {
		out = make([]object.ID, 0, total)
		var stack [4]idHead
		heads := stack[:0]
		for _, l := range lists {
			if l.n > 0 {
				h := idHead{n: l.n + 1, body: l.body}
				h.advance()
				heads = append(heads, h)
			}
		}
		for len(heads) > 0 {
			// The lowest head runs until it passes the next lowest; a list
			// left alone runs to its end.
			best, limit := 0, uint64(math.MaxUint64)
			for i := 1; i < len(heads); i++ {
				if heads[i].v < heads[best].v {
					best = i
				}
			}
			for i := range heads {
				if i != best {
					limit = min(limit, heads[i].v)
				}
			}
			h := heads[best]
			if len(out) > 0 && uint64(out[len(out)-1]) == h.v {
				h.advance() // another list had it first
			}
			for h.n > 0 && h.v <= limit {
				out = append(out, object.ID(h.v))
				h.advance()
			}
			if h.n > 0 {
				heads[best] = h
			} else {
				heads[best] = heads[len(heads)-1]
				heads = heads[:len(heads)-1]
			}
		}
	}
	for _, l := range lists {
		pool.Bytes.Put(l.frame)
	}
	return out
}
