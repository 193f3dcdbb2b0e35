package wire

import (
	"context"
	"testing"

	"minos/internal/server"
)

// TestStatsTaggedRoundTrip: every counter survives the tagged encoding,
// including the ones deliberately emitted out of tag order.
func TestStatsTaggedRoundTrip(t *testing.T) {
	want := server.Stats{
		PieceReads: 1, BytesOut: 2, CacheHits: 3, CacheMiss: 4,
		DeviceWaits: 5, DeviceWaitNanos: 6, ReadAheadBlocks: 7, Shed: 8,
		EncodedHits: 9, EncodedMiss: 10, PoolAllocs: 11, PoolRecycled: 12,
	}
	payload := encodeStatsTagged(want)
	if payload[0] != statsTagged {
		t.Fatalf("marker = %#x", payload[0])
	}
	got, err := decodeStatsTagged(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
}

// TestStatsTaggedSkipsUnknownTags: a client must keep decoding the fields
// it knows when the server appends counters with tags it does not.
func TestStatsTaggedSkipsUnknownTags(t *testing.T) {
	payload := encodeStatsTagged(server.Stats{PieceReads: 9, Shed: 2})
	payload = append(payload, 200) // unknown future tag...
	payload = appendU64(payload, 12345)
	got, err := decodeStatsTagged(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.PieceReads != 9 || got.Shed != 2 {
		t.Fatalf("decode with unknown tag = %+v", got)
	}
}

// TestStatsRejectsUntaggedPayload: a payload that does not open with the
// marker (empty, or damaged in transit) is an error, not a zero snapshot.
func TestStatsRejectsUntaggedPayload(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, appendU64(nil, 7), encodeStatsTagged(server.Stats{})[1:]} {
		if _, err := decodeStatsTagged(payload); err == nil {
			t.Fatalf("untagged stats payload %v accepted", payload)
		}
	}
}

// TestStatsOverWire: StatsCtx decodes the tagged response the server emits.
func TestStatsOverWire(t *testing.T) {
	c, _ := localClient(t)
	if _, _, err := c.ReadPieceCtx(context.Background(), 0, 64); err != nil {
		t.Fatal(err)
	}
	st, err := c.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.PieceReads == 0 {
		t.Fatalf("stats over wire = %+v", st)
	}
}
