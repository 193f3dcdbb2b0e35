package wire

import (
	"testing"

	"minos/internal/object"
	"minos/internal/pool"
)

// TestAllocMuxFrameEncode guards the v2 frame encode: staging a mux frame
// from a pooled buffer and releasing it must not allocate in steady state.
func TestAllocMuxFrameEncode(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	msg := make([]byte, 900)
	pool.Bytes.Put(muxFrame(7, msg)) // warm the pool
	avg := testing.AllocsPerRun(100, func() {
		pool.Bytes.Put(muxFrame(7, msg))
	})
	if avg > 0 {
		t.Fatalf("muxFrame allocates %.1f objects/run in steady state, want 0", avg)
	}
}

// TestAllocBackoffJitter guards the retry path's jitter source: drawing
// backoff delays — including through a shared multi-shard BackoffRand —
// must never allocate, so a K-way scatter/gather retrying under load adds
// no GC pressure.
func TestAllocBackoffJitter(t *testing.T) {
	rng := NewBackoffRand(1)
	pol := RetryPolicy{}.withDefaults()
	avg := testing.AllocsPerRun(1000, func() {
		_ = pol.backoff(2, rng)
	})
	if avg > 0 {
		t.Fatalf("backoff allocates %.1f objects/run, want 0", avg)
	}
}

// TestAllocMiniatureServeWarm is the zero-allocation acceptance guard: once
// every miniature is built and its encoding cached, serving a batched
// miniature request must perform no heap allocations at all.
func TestAllocMiniatureServeWarm(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	h := &Handler{Srv: testServer(t)}
	req := encodeMiniaturesReq([]object.ID{1, 2, 3})
	resp := h.HandleAs(0, req) // warm: build miniatures, fill the encoded cache
	if resp[0] != statusOK {
		t.Fatalf("warmup response status %d", resp[0])
	}
	recycleResponse(resp)
	avg := testing.AllocsPerRun(100, func() {
		recycleResponse(h.HandleAs(0, req))
	})
	if avg > 0 {
		t.Fatalf("warm miniature serve allocates %.1f objects/run, want 0", avg)
	}
}
