package server

import (
	"container/list"
	"sync"
)

// BlockCache is a thread-safe LRU cache of device blocks ("the server
// provides access methods, scheduling, cashing", §5). It is self-contained:
// all list/map manipulation and the hit/miss counters live behind one
// mutex, so any number of server goroutines can share it.
type BlockCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recent; values are *cacheEntry
	byBlk  map[uint64]*list.Element
	hits   int64
	misses int64
}

type cacheEntry struct {
	blk  uint64
	data []byte
}

// NewBlockCache builds a cache holding up to capBlocks blocks. A capacity
// of zero (or less) disables the cache: every Get misses, every Put is
// dropped.
func NewBlockCache(capBlocks int) *BlockCache {
	return &BlockCache{cap: capBlocks, ll: list.New(), byBlk: map[uint64]*list.Element{}}
}

// Get returns the cached block or nil. The returned slice is shared with
// the cache and must be treated as read-only.
func (c *BlockCache) Get(blk uint64) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byBlk[blk]; ok {
		c.ll.MoveToFront(e)
		c.hits++
		return e.Value.(*cacheEntry).data
	}
	c.misses++
	return nil
}

// peek is Get without touching the hit/miss counters, for the re-check
// after a seek-semaphore wait: the request already recorded its miss, and
// finding the block fetched meanwhile should not count as a second lookup.
func (c *BlockCache) peek(blk uint64) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byBlk[blk]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*cacheEntry).data
	}
	return nil
}

// Put inserts a block, evicting the least recently used at capacity: the
// evicted entry is rewritten in place and moved to the front, so a cache
// that is full — the steady state of a sweep larger than it — inserts
// without allocating.
func (c *BlockCache) Put(blk uint64, data []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byBlk[blk]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*cacheEntry).data = data
		return
	}
	if c.ll.Len() < c.cap {
		c.byBlk[blk] = c.ll.PushFront(&cacheEntry{blk: blk, data: data})
		return
	}
	e := c.ll.Back()
	ent := e.Value.(*cacheEntry)
	delete(c.byBlk, ent.blk)
	ent.blk, ent.data = blk, data
	c.ll.MoveToFront(e)
	c.byBlk[blk] = e
}

// Len returns the number of cached blocks.
func (c *BlockCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the cache capacity in blocks.
func (c *BlockCache) Cap() int { return c.cap }

// Counters returns the accumulated hit/miss counts.
func (c *BlockCache) Counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// ResetCounters zeroes the hit/miss counters; cached contents are kept.
func (c *BlockCache) ResetCounters() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses = 0, 0
}
