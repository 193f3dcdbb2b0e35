package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minos/internal/descriptor"
	img "minos/internal/image"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/server"
	"minos/internal/voice"
	"minos/internal/wire"
)

// Dialer opens a transport to one fleet endpoint. TCP fleets pass a
// wire.DialMux wrapper; in-process fleets (tests, the vclock experiments)
// return a wire.LocalTransport over the endpoint's handler.
type Dialer func(endpoint string) (wire.Transport, error)

// Client is the workstation-side fleet stub: it routes every call to the
// shard owning the target object (consistent hashing on the object id),
// splits batched calls by shard and issues the pieces in parallel on each
// shard's multiplexed connection, and merges results back in request order.
//
// Failure handling composes with the wire client's retry machinery rather
// than replacing it: each per-shard call runs under that shard connection's
// own retry/reconnect loop, and only when the loop gives up — the primary
// is dead (NeedsReconnect) or persistently shedding (ErrServerBusy) — does
// the router redirect the read to the shard's WORM replica. All protocol
// ops are idempotent reads, so redirecting is always safe; writes (Publish
// is server-side ingestion) stay pinned to the primary by construction.
//
// A stale cluster map never surfaces as a hard error: a routed call that
// misses its object triggers a map refetch, and if the epoch moved, the
// call is re-routed once under the new map.
type Client struct {
	dial Dialer

	mu    sync.Mutex
	m     *Map
	ring  *Ring
	conns map[string]*wire.Client

	// jitter is shared by every per-shard connection (see
	// wire.SetBackoffRand): a K-way fan-out retrying across shards draws
	// from one lock-free source instead of K throwaway rand states.
	jitter   *wire.BackoffRand
	retry    wire.RetryPolicy
	retrySet bool

	refetches     atomic.Int64
	failovers     atomic.Int64
	reroutes      atomic.Int64
	streamResumes atomic.Int64
}

// Dial connects to a fleet through one seed endpoint and learns the
// cluster map — preferentially from the HELLO acknowledgement the seed
// transport already carries (wire.MuxTransport.HelloExtra), falling back
// to an explicit CLUSTERMAP fetch for transports without one.
func Dial(seed string, dial Dialer) (*Client, error) {
	return DialCtx(context.Background(), seed, dial)
}

// DialCtx is Dial bounded by a context.
func DialCtx(ctx context.Context, seed string, dial Dialer) (*Client, error) {
	c := &Client{
		dial:   dial,
		conns:  map[string]*wire.Client{},
		jitter: wire.NewBackoffRand(0x4D494E4F53 /* "MINOS" */),
	}
	t, err := dial(seed)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial seed %s: %w", seed, err)
	}
	wc := wire.NewClient(t)
	wc.SetBackoffRand(c.jitter)
	wc.EnableReconnect(func() (wire.Transport, error) { return c.dial(seed) })
	c.conns[seed] = wc
	var payload []byte
	if he, ok := t.(interface{ HelloExtra() []byte }); ok {
		payload = he.HelloExtra()
	}
	if payload == nil {
		// Epoch 0 is reserved for "no map yet": a fleet member always
		// answers it with the full payload.
		payload, _, err = wc.ClusterMapCtx(ctx, 0)
		if err != nil {
			wc.Close()
			return nil, fmt.Errorf("cluster: fetch map from %s: %w", seed, err)
		}
	}
	m, err := ParseMap(payload)
	if err != nil {
		wc.Close()
		return nil, err
	}
	if err := m.Validate(); err != nil {
		wc.Close()
		return nil, err
	}
	c.install(m)
	return c, nil
}

func (c *Client) install(m *Map) {
	ring := m.Ring()
	c.mu.Lock()
	c.m, c.ring = m, ring
	c.mu.Unlock()
}

// topo snapshots the current map and ring; calls in flight keep routing on
// the snapshot they started with while a refetch installs a newer one.
func (c *Client) topo() (*Map, *Ring) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m, c.ring
}

// Map returns the cluster map the client is currently routing with.
func (c *Client) Map() *Map { m, _ := c.topo(); return m }

// Refetches, Failovers and Reroutes report how often the client refreshed
// its map, served a read from a replica after its primary failed, and
// re-routed a call under a freshly fetched map.
func (c *Client) Refetches() int64 { return c.refetches.Load() }
func (c *Client) Failovers() int64 { return c.failovers.Load() }
func (c *Client) Reroutes() int64  { return c.reroutes.Load() }

// StreamResumes reports how many open streams were resumed mid-flight on
// another endpoint after their serving endpoint failed.
func (c *Client) StreamResumes() int64 { return c.streamResumes.Load() }

// Reconnects sums the reconnect counters of every pooled shard connection.
// A workstation session watches this (through the Backend interface) the
// way it watches a single connection's counter: any movement means some
// shard may have restarted, so cached browse state is resynchronized.
func (c *Client) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, wc := range c.conns {
		n += wc.Reconnects()
	}
	return n
}

// SetRetryPolicy installs the retry policy on every per-shard connection
// (current and future).
func (c *Client) SetRetryPolicy(p wire.RetryPolicy) {
	c.mu.Lock()
	c.retry, c.retrySet = p, true
	for _, wc := range c.conns {
		wc.SetRetryPolicy(p)
	}
	c.mu.Unlock()
}

// Close releases every pooled shard connection.
func (c *Client) Close() error {
	c.mu.Lock()
	conns := c.conns
	c.conns = map[string]*wire.Client{}
	c.mu.Unlock()
	var first error
	for _, wc := range conns {
		if err := wc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// conn returns the pooled connection to endpoint, dialing it on first use.
// One multiplexed connection per endpoint is the pool: the protocol carries
// any number of in-flight calls per connection, so the pool's job is reuse
// and shared retry state, not connection fan-out.
func (c *Client) conn(endpoint string) (*wire.Client, error) {
	c.mu.Lock()
	if wc, ok := c.conns[endpoint]; ok {
		c.mu.Unlock()
		return wc, nil
	}
	c.mu.Unlock()
	t, err := c.dial(endpoint) // dial outside the lock: it may block
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if wc, ok := c.conns[endpoint]; ok {
		t.Close() // lost a dial race; keep the established pool entry
		return wc, nil
	}
	wc := wire.NewClient(t)
	wc.SetBackoffRand(c.jitter)
	if c.retrySet {
		wc.SetRetryPolicy(c.retry)
	}
	ep := endpoint
	wc.EnableReconnect(func() (wire.Transport, error) { return c.dial(ep) })
	c.conns[endpoint] = wc
	return wc, nil
}

// failoverable reports whether a per-shard failure justifies redirecting
// the (idempotent) read to a replica: the primary's connection is dead,
// the call timed out, frames are damaged, or the primary is persistently
// shedding past the wire client's own retry budget.
func failoverable(err error) bool {
	if err == nil {
		return false
	}
	return wire.NeedsReconnect(err) ||
		errors.Is(err, wire.ErrServerBusy) ||
		errors.Is(err, wire.ErrCallTimeout) ||
		errors.Is(err, wire.ErrShort)
}

// onShard runs call against the shard's primary, then — only for failures
// a replica can absorb — against each read replica in order. The first
// success wins; a success on a replica counts as a failover.
func (c *Client) onShard(ctx context.Context, m *Map, shard int, call func(*wire.Client) error) error {
	sh := m.Shard(shard)
	if sh == nil {
		return fmt.Errorf("cluster: map epoch %d has no shard %d", m.Epoch, shard)
	}
	var last error
	for i := 0; i <= len(sh.Replicas); i++ {
		endpoint := sh.Primary
		if i > 0 {
			endpoint = sh.Replicas[i-1]
		}
		wc, err := c.conn(endpoint)
		if err == nil {
			err = call(wc)
			if err == nil {
				if i > 0 {
					c.failovers.Add(1)
				}
				return nil
			}
		}
		last = err
		if !failoverable(err) || ctx.Err() != nil {
			return err
		}
	}
	return fmt.Errorf("cluster: shard %d unavailable (primary and %d replicas): %w",
		shard, len(m.Shard(shard).Replicas), last)
}

// isStaleRoute reports whether a per-shard error means the target object is
// unknown on the shard the current map routed it to — either the object
// does not exist at all, or the map is stale and the object moved. The
// caller disambiguates by refetching the map and comparing epochs. Server
// errors cross the wire as strings, so this matches the two spellings the
// serving path produces (wire's "unknown object", archiver's "object not
// found").
func isStaleRoute(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "unknown object") || strings.Contains(msg, "object not found")
}

// maybeRefetch refreshes the cluster map and reports whether the epoch
// moved — the signal that a miss may have been a misroute worth retrying.
func (c *Client) maybeRefetch(ctx context.Context) bool {
	before, _ := c.topo()
	if err := c.RefetchMap(ctx); err != nil {
		return false
	}
	after, _ := c.topo()
	return after.Epoch != before.Epoch
}

// RefetchMap refreshes the cluster map from the fleet, asking each shard's
// endpoints in map order until one answers. An unchanged epoch keeps the
// current map.
func (c *Client) RefetchMap(ctx context.Context) error {
	m, _ := c.topo()
	var last error
	for _, sh := range m.Shards {
		for i := 0; i <= len(sh.Replicas); i++ {
			endpoint := sh.Primary
			if i > 0 {
				endpoint = sh.Replicas[i-1]
			}
			wc, err := c.conn(endpoint)
			if err != nil {
				last = err
				continue
			}
			payload, changed, err := wc.ClusterMapCtx(ctx, m.Epoch)
			if err != nil {
				last = err
				continue
			}
			c.refetches.Add(1)
			if !changed {
				return nil
			}
			nm, err := ParseMap(payload)
			if err != nil {
				return err
			}
			if err := nm.Validate(); err != nil {
				return err
			}
			c.install(nm)
			return nil
		}
	}
	return fmt.Errorf("cluster: map refetch failed on every endpoint: %w", last)
}

// Owner returns the shard currently owning an object id.
func (c *Client) Owner(id object.ID) int {
	_, ring := c.topo()
	return ring.Owner(id)
}

// --- routed single-object calls ---

// routed runs call against the shard owning id, re-routing once if the
// miss was explained by a map-epoch change.
func (c *Client) routed(ctx context.Context, id object.ID, call func(*wire.Client) error) error {
	m, ring := c.topo()
	err := c.onShard(ctx, m, ring.Owner(id), call)
	if isStaleRoute(err) && c.maybeRefetch(ctx) {
		nm, nring := c.topo()
		c.reroutes.Add(1)
		return c.onShard(ctx, nm, nring.Owner(id), call)
	}
	return err
}

// DescriptorCtx fetches and parses an object descriptor from its shard.
func (c *Client) DescriptorCtx(ctx context.Context, id object.ID) (*descriptor.Descriptor, time.Duration, error) {
	var d *descriptor.Descriptor
	var dur time.Duration
	err := c.routed(ctx, id, func(wc *wire.Client) error {
		var e error
		d, dur, e = wc.DescriptorCtx(ctx, id)
		return e
	})
	return d, dur, err
}

// ReadPieceCtx fetches a byte extent of id's shard archive. Offsets are
// archiver-absolute per shard, so they are only meaningful together with a
// descriptor fetched for the same object: the id is the routing key that
// keeps the two on the same shard.
func (c *Client) ReadPieceCtx(ctx context.Context, id object.ID, off, length uint64) ([]byte, time.Duration, error) {
	var data []byte
	var dur time.Duration
	err := c.routed(ctx, id, func(wc *wire.Client) error {
		var e error
		data, dur, e = wc.ReadPieceCtx(ctx, off, length)
		return e
	})
	return data, dur, err
}

// ObjectPieceCtx is the routable spelling of ReadPieceCtx shared with the
// single-server client: the workstation Backend interface reads pieces
// through it so one Session drives either topology.
func (c *Client) ObjectPieceCtx(ctx context.Context, id object.ID, off, length uint64) ([]byte, time.Duration, error) {
	return c.ReadPieceCtx(ctx, id, off, length)
}

// Fetch adapts the client into a descriptor.FetchFunc resolving parts of
// object id, accumulating device time into dur if non-nil.
func (c *Client) Fetch(id object.ID, dur *time.Duration) descriptor.FetchFunc {
	return func(ref descriptor.PartRef) ([]byte, error) {
		data, t, err := c.ReadPieceCtx(context.Background(), id, ref.Offset, ref.Length)
		if dur != nil {
			*dur += t
		}
		return data, err
	}
}

// VoicePreviewCtx fetches the voice preview of an audio-mode object from
// its shard.
func (c *Client) VoicePreviewCtx(ctx context.Context, id object.ID) (*voice.Part, time.Duration, error) {
	var vp *voice.Part
	var dur time.Duration
	err := c.routed(ctx, id, func(wc *wire.Client) error {
		var e error
		vp, dur, e = wc.VoicePreviewCtx(ctx, id)
		return e
	})
	return vp, dur, err
}

// ImageViewCtx fetches a rectangle of an image part from id's shard.
func (c *Client) ImageViewCtx(ctx context.Context, id object.ID, name string, r img.Rect) (*img.Bitmap, time.Duration, error) {
	var bm *img.Bitmap
	var dur time.Duration
	err := c.routed(ctx, id, func(wc *wire.Client) error {
		var e error
		bm, dur, e = wc.ImageViewCtx(ctx, id, name, r)
		return e
	})
	return bm, dur, err
}

// ModeCtx returns an object's driving mode (via the batched miniature path
// on its shard, like the wire client).
func (c *Client) ModeCtx(ctx context.Context, id object.ID) (object.Mode, error) {
	res, _, err := c.MiniaturesCtx(ctx, []object.ID{id})
	if err != nil {
		return 0, err
	}
	if !res[0].OK {
		return 0, fmt.Errorf("cluster: unknown object %d", id)
	}
	return res[0].Mode, nil
}

// --- scatter/gather calls ---

// MiniaturesCtx fetches a miniature batch: the ids are split by owning
// shard, each sub-batch goes out in parallel on its shard's multiplexed
// connection (one round trip per shard, not per id), and the results merge
// back in request order. Missing entries come back OK=false, as on the
// single-server path; if any are missing under a map that turns out stale,
// the missing ids are re-routed once under the refreshed map. The duration
// is the maximum per-shard device time (the fan-out runs concurrently).
func (c *Client) MiniaturesCtx(ctx context.Context, ids []object.ID) ([]wire.MiniatureResult, time.Duration, error) {
	out := make([]wire.MiniatureResult, len(ids))
	dur, err := c.miniaturesOnce(ctx, ids, allIndices(len(ids)), out)
	if err != nil {
		return nil, dur, err
	}
	var missing []int
	for i, r := range out {
		if !r.OK {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 && c.maybeRefetch(ctx) {
		c.reroutes.Add(1)
		if d2, err := c.miniaturesOnce(ctx, ids, missing, out); err == nil && d2 > dur {
			dur = d2
		}
	}
	return out, dur, nil
}

// pendingMiniatures is one in-flight batched miniature fetch launched by
// StartMiniatures.
type pendingMiniatures struct {
	ch  chan struct{}
	res []wire.MiniatureResult
	dur time.Duration
	err error
}

func (p *pendingMiniatures) Wait() ([]wire.MiniatureResult, time.Duration, error) {
	<-p.ch
	return p.res, p.dur, p.err
}

// StartMiniatures launches a batched miniature fetch without waiting — the
// workstation prefetcher's pipelining hook, giving fleet-backed sessions
// the same depth-N read-ahead as single-server ones. Each in-flight batch
// runs the routed scatter/gather concurrently: the per-shard sub-batches
// ride their shard's multiplexed connection, so several batches in flight
// share the fleet's links exactly like pipelined calls share one mux.
func (c *Client) StartMiniatures(ctx context.Context, ids []object.ID) wire.MiniatureBatch {
	p := &pendingMiniatures{ch: make(chan struct{})}
	go func() {
		defer close(p.ch)
		p.res, p.dur, p.err = c.MiniaturesCtx(ctx, ids)
	}()
	return p
}

func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// miniaturesOnce routes the requested indices of ids by the current ring
// and writes each shard's results into out at the requested positions.
func (c *Client) miniaturesOnce(ctx context.Context, ids []object.ID, want []int, out []wire.MiniatureResult) (time.Duration, error) {
	m, ring := c.topo()
	groups := map[int][]int{}
	var order []int // shards in first-appearance order: determinism and a cheap single-shard fast path
	for _, i := range want {
		s := ring.Owner(ids[i])
		if _, ok := groups[s]; !ok {
			order = append(order, s)
		}
		groups[s] = append(groups[s], i)
	}
	fetch := func(shard int, idxs []int) (time.Duration, error) {
		sub := make([]object.ID, len(idxs))
		for k, i := range idxs {
			sub[k] = ids[i]
		}
		var res []wire.MiniatureResult
		var dur time.Duration
		err := c.onShard(ctx, m, shard, func(wc *wire.Client) error {
			var e error
			res, dur, e = wc.MiniaturesCtx(ctx, sub)
			return e
		})
		if err != nil {
			return dur, err
		}
		for k, i := range idxs {
			out[i] = res[k]
		}
		return dur, nil
	}
	if len(order) == 1 {
		return fetch(order[0], groups[order[0]])
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		maxDur   time.Duration
	)
	for _, s := range order {
		wg.Add(1)
		go func(shard int, idxs []int) {
			defer wg.Done()
			dur, err := fetch(shard, idxs)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if dur > maxDur {
				maxDur = dur
			}
		}(s, groups[s])
	}
	wg.Wait()
	return maxDur, firstErr
}

// QueryCtx evaluates a content query on every shard in parallel and merges
// the id sets ascending — the partitioned corpus makes per-shard results
// disjoint, so the merge equals the single-server result exactly.
func (c *Client) QueryCtx(ctx context.Context, terms ...string) ([]object.ID, time.Duration, error) {
	return c.gatherIDs(ctx, func(wc *wire.Client) ([]object.ID, time.Duration, error) {
		return wc.QueryCtx(ctx, terms...)
	})
}

// QueryPlannedCtx scatters a planned content query — conjunctive terms plus
// attribute predicates — to every shard in parallel, where each shard's
// planner evaluates it against the local segments, and gathers the sorted
// per-shard id streams into one ascending result. Shards are reached through
// onShard, so a dead primary fails over to its replicas like every other op
// (the WORM content index is identical on a replica, so a failed-over answer
// equals the primary's).
func (c *Client) QueryPlannedCtx(ctx context.Context, q index.Query) ([]object.ID, time.Duration, error) {
	return c.gatherIDs(ctx, func(wc *wire.Client) ([]object.ID, time.Duration, error) {
		return wc.QueryPlannedCtx(ctx, q)
	})
}

// ListCtx returns all published object ids across the fleet, ascending.
func (c *Client) ListCtx(ctx context.Context) ([]object.ID, time.Duration, error) {
	return c.gatherIDs(ctx, func(wc *wire.Client) ([]object.ID, time.Duration, error) {
		return wc.ListCtx(ctx)
	})
}

// gatherIDs fans call out to every shard and merges the per-shard id
// streams. Each shard answers in ascending order (both the content index
// and the archiver directory are sorted), so the gather is a k-way merge of
// sorted streams, not a global re-sort.
func (c *Client) gatherIDs(ctx context.Context, call func(*wire.Client) ([]object.ID, time.Duration, error)) ([]object.ID, time.Duration, error) {
	m, _ := c.topo()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		maxDur   time.Duration
	)
	parts := make([][]object.ID, len(m.Shards))
	for i, sh := range m.Shards {
		wg.Add(1)
		go func(slot, shard int) {
			defer wg.Done()
			var ids []object.ID
			var dur time.Duration
			err := c.onShard(ctx, m, shard, func(wc *wire.Client) error {
				var e error
				ids, dur, e = call(wc)
				return e
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if dur > maxDur {
				maxDur = dur
			}
			parts[slot] = ids
		}(i, sh.ID)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, maxDur, firstErr
	}
	return mergeSortedIDs(parts), maxDur, nil
}

// mergeSortedIDs merges ascending id streams into one ascending slice,
// deduplicating equal heads (shards partition the corpus, so duplicates
// only appear if two streams overlap — e.g. a re-published object caught
// on both sides of a resharding).
func mergeSortedIDs(parts [][]object.ID) []object.ID {
	total, live := 0, 0
	for _, p := range parts {
		total += len(p)
		if len(p) > 0 {
			live++
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]object.ID, 0, total)
	if live == 1 {
		for _, p := range parts {
			if len(p) > 0 {
				return append(out, p...)
			}
		}
	}
	heads := make([]int, len(parts))
	for {
		best := -1
		var min object.ID
		for i, p := range parts {
			if heads[i] >= len(p) {
				continue
			}
			if v := p[heads[i]]; best < 0 || v < min {
				best, min = i, v
			}
		}
		if best < 0 {
			return out
		}
		if len(out) == 0 || out[len(out)-1] != min {
			out = append(out, min)
		}
		heads[best]++
	}
}

// StatsCtx aggregates the request/cache/contention counters across every
// shard primary (replica counters are not folded in: the primaries carry
// the fleet's serving traffic unless a failover is in progress).
func (c *Client) StatsCtx(ctx context.Context) (server.Stats, error) {
	m, _ := c.topo()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		total    server.Stats
	)
	for _, sh := range m.Shards {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			var st server.Stats
			err := c.onShard(ctx, m, shard, func(wc *wire.Client) error {
				var e error
				st, e = wc.StatsCtx(ctx)
				return e
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			total.PieceReads += st.PieceReads
			total.BytesOut += st.BytesOut
			total.CacheHits += st.CacheHits
			total.CacheMiss += st.CacheMiss
			total.DeviceWaits += st.DeviceWaits
			total.DeviceWaitNanos += st.DeviceWaitNanos
			total.ReadAheadBlocks += st.ReadAheadBlocks
			total.Shed += st.Shed
			total.EncodedHits += st.EncodedHits
			total.EncodedMiss += st.EncodedMiss
			total.PoolAllocs += st.PoolAllocs
			total.PoolRecycled += st.PoolRecycled
		}(sh.ID)
	}
	wg.Wait()
	return total, firstErr
}
