package server

import (
	"sync"
	"testing"
)

// cacheOp is one step of a table-driven cache scenario.
type cacheOp struct {
	put  bool
	blk  uint64
	data byte // payload for puts; expected first byte for hits
	hit  bool // for gets: whether the block must be resident
}

func get(blk uint64, hit bool, data byte) cacheOp { return cacheOp{blk: blk, hit: hit, data: data} }
func put(blk uint64, data byte) cacheOp           { return cacheOp{put: true, blk: blk, data: data} }

func TestBlockCacheTable(t *testing.T) {
	cases := []struct {
		name       string
		cap        int
		ops        []cacheOp
		wantLen    int
		wantHits   int64
		wantMisses int64
	}{
		{
			name: "eviction order is LRU",
			cap:  2,
			ops: []cacheOp{
				put(1, 1), put(2, 2),
				get(1, true, 1), // touch 1: now 2 is least recent
				put(3, 3),       // evicts 2
				get(2, false, 0),
				get(1, true, 1),
				get(3, true, 3),
			},
			wantLen: 2, wantHits: 3, wantMisses: 1,
		},
		{
			name: "get refreshes recency",
			cap:  3,
			ops: []cacheOp{
				put(10, 1), put(11, 2), put(12, 3),
				get(10, true, 1), get(11, true, 2), // 12 becomes LRU
				put(13, 4), // evicts 12
				get(12, false, 0),
				get(13, true, 4),
			},
			wantLen: 3, wantHits: 3, wantMisses: 1,
		},
		{
			name: "re-put updates in place without eviction",
			cap:  2,
			ops: []cacheOp{
				put(1, 1), put(2, 2),
				put(1, 9), // update, not insert
				get(1, true, 9),
				get(2, true, 2),
			},
			wantLen: 2, wantHits: 2, wantMisses: 0,
		},
		{
			name: "capacity zero disables the cache",
			cap:  0,
			ops: []cacheOp{
				put(1, 1), put(2, 2),
				get(1, false, 0), get(2, false, 0),
			},
			wantLen: 0, wantHits: 0, wantMisses: 2,
		},
		{
			name: "capacity one holds exactly the last block",
			cap:  1,
			ops: []cacheOp{
				put(1, 1), get(1, true, 1),
				put(2, 2), get(1, false, 0), get(2, true, 2),
			},
			wantLen: 1, wantHits: 2, wantMisses: 1,
		},
		{
			name:    "empty cache only misses",
			cap:     4,
			ops:     []cacheOp{get(1, false, 0), get(2, false, 0), get(1, false, 0)},
			wantLen: 0, wantHits: 0, wantMisses: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewBlockCache(tc.cap)
			if c.Cap() != tc.cap {
				t.Fatalf("Cap = %d, want %d", c.Cap(), tc.cap)
			}
			for i, op := range tc.ops {
				if op.put {
					c.Put(op.blk, []byte{op.data})
					continue
				}
				got := c.Get(op.blk)
				if op.hit && (got == nil || got[0] != op.data) {
					t.Fatalf("op %d: Get(%d) = %v, want [%d]", i, op.blk, got, op.data)
				}
				if !op.hit && got != nil {
					t.Fatalf("op %d: Get(%d) = %v, want miss", i, op.blk, got)
				}
			}
			if c.Len() != tc.wantLen {
				t.Fatalf("Len = %d, want %d", c.Len(), tc.wantLen)
			}
			hits, misses := c.Counters()
			if hits != tc.wantHits || misses != tc.wantMisses {
				t.Fatalf("counters = %d hits / %d misses, want %d / %d", hits, misses, tc.wantHits, tc.wantMisses)
			}
			c.ResetCounters()
			if hits, misses := c.Counters(); hits != 0 || misses != 0 {
				t.Fatalf("counters after reset = %d / %d", hits, misses)
			}
			if c.Len() != tc.wantLen {
				t.Fatal("ResetCounters dropped cached contents")
			}
		})
	}
}

// TestBlockCacheConcurrent stresses one cache from many goroutines; run
// under -race it proves the cache is self-contained and thread-safe, and
// the counters must add up exactly afterwards.
func TestBlockCacheConcurrent(t *testing.T) {
	c := NewBlockCache(64)
	const workers = 16
	iters := raceIters(t, 500)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				blk := uint64((w*31 + i) % 128)
				if i%3 == 0 {
					c.Put(blk, []byte{byte(blk)})
				} else if got := c.Get(blk); got != nil && got[0] != byte(blk) {
					t.Errorf("Get(%d) returned foreign block %d", blk, got[0])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache overflowed capacity: %d", c.Len())
	}
	hits, misses := c.Counters()
	gets := int64(0)
	for w := 0; w < workers; w++ {
		for i := 0; i < iters; i++ {
			if i%3 != 0 {
				gets++
			}
		}
	}
	if hits+misses != gets {
		t.Fatalf("hits %d + misses %d != %d lookups", hits, misses, gets)
	}
}

// TestAllocBlockCachePutAtCapacity: a full cache rewrites its oldest entry
// in place, so a sweep larger than the cache inserts without allocating —
// and still evicts in LRU order.
func TestAllocBlockCachePutAtCapacity(t *testing.T) {
	c := NewBlockCache(4)
	data := []byte{1}
	for b := uint64(0); b < 4; b++ {
		c.Put(b, data)
	}
	next := uint64(4)
	avg := testing.AllocsPerRun(100, func() {
		c.Put(next, data)
		next++
	})
	if avg > 0 {
		t.Fatalf("Put at capacity allocates %.1f objects/run, want 0", avg)
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d blocks, want 4", c.Len())
	}
	for b := next - 4; b < next; b++ {
		if c.peek(b) == nil {
			t.Fatalf("block %d, one of the four most recent, was evicted", b)
		}
	}
	if c.peek(next-5) != nil {
		t.Fatalf("block %d outlived four newer ones", next-5)
	}
}
