package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"minos/internal/archiver"
	"minos/internal/disk"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/pool"
	"minos/internal/server"
)

// decodeIDListRef decodes a validated packed list the plain way, one id at
// a time into its own slice: the reference the merge is checked against.
func decodeIDListRef(payload []byte) []object.ID {
	n := binary.BigEndian.Uint32(payload)
	body := payload[4:]
	ids := make([]object.ID, 0, n)
	var v uint64
	for i := uint32(0); i < n; i++ {
		g, k := binary.Uvarint(body)
		body = body[k:]
		v += g
		ids = append(ids, object.ID(v))
	}
	return ids
}

// TestIDListRoundTrip: every strictly ascending list survives encode,
// validate and merge unchanged, and the encoder's size is exact.
func TestIDListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := [][]object.ID{
		nil,
		{0},
		{1},
		{math.MaxUint64},
		{0, 1, 2, 3},
		{0, math.MaxUint64},
		{math.MaxUint64 - 2, math.MaxUint64 - 1, math.MaxUint64},
		{127, 128, 255, 256, 16383, 16384, 1 << 21, 1 << 35, 1 << 49, 1 << 63},
	}
	for _, gap := range []int{1, 2, 21, 1000, 1 << 20, 1 << 40} { // dense to sparse
		ids := make([]object.ID, 0, 500)
		v := uint64(rng.Int63n(1 << 30))
		for len(ids) < cap(ids) {
			ids = append(ids, object.ID(v))
			v += 1 + uint64(rng.Int63n(int64(gap)))
		}
		cases = append(cases, ids)
	}
	for _, ids := range cases {
		payload := appendIDList(nil, ids)
		if got := idListSize(ids); got != len(payload) {
			t.Fatalf("%d ids: idListSize = %d, encoded %d bytes", len(ids), got, len(payload))
		}
		l, err := parseIDList(nil, payload)
		if err != nil {
			t.Fatalf("%d ids: %v", len(ids), err)
		}
		if got := MergeIDLists(l); !slices.Equal(got, ids) {
			t.Fatalf("round trip of %v = %v", ids, got)
		}
	}
}

// TestIDListRejects: the decoder refuses every way a packed list can be
// damaged, each as ErrShort (a damaged frame), before any id is kept.
func TestIDListRejects(t *testing.T) {
	valid := appendIDList(nil, []object.ID{0, 1, 300, 70000, 1 << 40, math.MaxUint64})
	if _, err := parseIDList(nil, valid); err != nil {
		t.Fatal(err)
	}
	reject := func(name string, payload []byte) {
		t.Helper()
		if _, err := parseIDList(nil, payload); !errors.Is(err, ErrShort) {
			t.Fatalf("%s (% x): err = %v, want ErrShort", name, payload, err)
		}
	}
	for n := 0; n < len(valid); n++ {
		reject(fmt.Sprintf("prefix %d", n), valid[:n])
	}
	count := func(n uint32, varints ...uint64) []byte {
		b := appendU32(nil, n)
		for _, v := range varints {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	reject("zero gap", count(3, 5, 1, 0))
	reject("overflow past 2^64-1", count(2, math.MaxUint64, 1))
	reject("varint wider than 64 bits", append(appendU32(nil, 1), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02))
	reject("count beyond the bytes", count(5, 1, 2, 3))
	reject("count of 4G", count(math.MaxUint32, 1))
	reject("trailing bytes", append(slices.Clone(valid), 0))
	reject("trailing bytes after an empty list", count(0, 1))
}

// TestIDListMergeDedups: ids found in several lists are kept once, and a
// merge of no lists is empty.
func TestIDListMergeDedups(t *testing.T) {
	list := func(ids ...object.ID) IDList {
		l, err := parseIDList(nil, appendIDList(nil, ids))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	got := MergeIDLists(list(1, 4, 9), list(), list(2, 4, 10), list(4, 9, 11), list(0), list(12))
	if want := []object.ID{0, 1, 2, 4, 9, 10, 11, 12}; !slices.Equal(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	if got := MergeIDLists(); got != nil {
		t.Fatalf("merge of nothing = %v", got)
	}
}

// FuzzIDListMerge is a differential of the merge against decoding each list
// on its own, then sorting and compacting the lot. The input is used twice:
// cut into raw payloads (hostile bytes; only those that validate take part)
// and read as ids dealt round-robin into k well-formed, overlapping lists.
func FuzzIDListMerge(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add(append([]byte{byte(len(appendIDList(nil, []object.ID{1, 2, 300})))}, appendIDList(nil, []object.ID{1, 2, 300})...), uint8(2))
	f.Add([]byte{9, 0, 0, 0, 2, 5, 0, 1, 2, 3}, uint8(3)) // a zero gap
	f.Add(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 7), math.MaxUint64), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		check := func(lists []IDList, payloads [][]byte) {
			var want []object.ID
			for _, p := range payloads {
				want = append(want, decodeIDListRef(p)...)
			}
			slices.Sort(want)
			want = slices.Compact(want)
			if got := MergeIDLists(lists...); !slices.Equal(got, want) {
				t.Fatalf("merge = %v, want %v", got, want)
			}
		}

		// Raw payloads: first byte of each chunk is its length.
		var lists []IDList
		var payloads [][]byte
		for rest := data; len(rest) > 0; {
			n := min(int(rest[0]), len(rest)-1)
			chunk := rest[1 : 1+n]
			rest = rest[1+n:]
			if l, err := parseIDList(nil, chunk); err == nil {
				lists, payloads = append(lists, l), append(payloads, chunk)
			}
		}
		check(lists, payloads)

		// Well-formed lists built from the bytes as ids.
		parts := make([][]object.ID, int(k%6)+1)
		for i := 0; i+8 <= len(data); i += 8 {
			p := &parts[(i/8)%len(parts)]
			*p = append(*p, object.ID(binary.BigEndian.Uint64(data[i:])))
		}
		lists, payloads = lists[:0], payloads[:0]
		for _, p := range parts {
			slices.Sort(p)
			payload := appendIDList(nil, slices.Compact(p))
			l, err := parseIDList(payload, payload)
			if err != nil {
				t.Fatalf("well-formed list rejected: %v", err)
			}
			lists, payloads = append(lists, l), append(payloads, payload)
		}
		check(lists, payloads)
	})
}

// synthIndexServer is a server whose content index holds docs documents,
// each carrying one of 21 "cN" terms (so a term matches about 1/21 of the
// corpus, as a common term does) and "all".
func synthIndexServer(tb testing.TB, docs int) *server.Server {
	tb.Helper()
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(64))
	if err != nil {
		tb.Fatal(err)
	}
	srv := server.New(archiver.New(dev))
	var terms [21]string
	for i := range terms {
		terms[i] = fmt.Sprintf("c%d", i)
	}
	for i := 0; i < docs; i++ {
		srv.ContentIndex().Add(&index.Doc{ID: object.ID(1000 + i), Mode: object.Visual, Terms: []string{terms[i%21], "all"}})
	}
	srv.ContentIndex().WaitMerges()
	return srv
}

// TestAllocQueryPlannedServe is the serving half of the id-list path's
// allocation guard: a warm planned query — terms read in place, the search
// into pooled scratch, the packed list into a pooled response — allocates
// nothing, however many ids it answers.
func TestAllocQueryPlannedServe(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	h := &Handler{Srv: synthIndexServer(t, 20_000)}
	req := encodeQueryPlannedReq(index.Query{Terms: []string{"c7"}})
	for i := 0; i < 4; i++ {
		resp := h.HandleAs(0, req)
		payload, _, err := parseResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := decodeIDListRef(payload), h.Srv.QueryPlanned(index.Query{Terms: []string{"c7"}}); len(want) < 900 || !slices.Equal(got, want) {
			t.Fatalf("served %d ids, want the %d QueryPlanned answers", len(got), len(want))
		}
		recycleResponse(resp)
	}
	avg := testing.AllocsPerRun(100, func() {
		recycleResponse(h.HandleAs(0, req))
	})
	if avg > 0 {
		t.Fatalf("warm planned query serve allocates %.1f objects/run, want 0", avg)
	}
}
