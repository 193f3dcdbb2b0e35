package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"minos/internal/cluster"
	"minos/internal/object"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// Ladder rungs: the same ids and queries timed by direct calls at each
// depth of the same stack, bottom up —
//
//	Store.Search -> Server.* -> wire.Client over LocalTransport (no link
//	model) -> raw MuxTransport -> wire.Client over DialMux ->
//	cluster.Client -> Session.* -> Hub.* -> (HTTP: the client's own op)
//
// — so a layer's rung self time is its rung minus the rung below. Each
// rung runs until rungCalls calls or its share of the ladder's time,
// whichever comes first, and reports the median; the sample count is in
// the report.

const (
	rungCalls = 2000
	rungBatch = 8 // miniature ids per batched call: the K of wire.*_us
	ladderTop = "half0"
)

// layerReport collects a traced run's per-layer metrics.
type layerReport struct{ res *workloadResult }

func (l *layerReport) set(name string, v float64, samples int) {
	l.res.PerLayer[name] = value(perLayer, name, v, samples)
}

// fillZeros reports every metric that did not apply to this workload as
// 0, so each traced run carries the full list.
func (l *layerReport) fillZeros() {
	for _, m := range perLayer {
		if _, ok := l.res.PerLayer[m.Name]; !ok {
			l.set(m.Name, 0, 0)
		}
	}
}

func (l *layerReport) fromCounters(d counters, ops float64) {
	n := int(ops)
	both := func(a, b counterID) int { return int(d.get(a) + d.get(b)) }
	l.set("gateway.png_hit_ratio", d.ratio(cPNGHits, cPNGMisses), both(cPNGHits, cPNGMisses))
	l.set("gateway.shed", d.f(cGatewayShed), n)
	l.set("gateway.push_dropped", d.f(cPushDropped), n)
	l.set("workstation.prefetch_hit_ratio", d.ratio(cPrefetchHits, cPrefetchMisses), both(cPrefetchHits, cPrefetchMisses))
	l.set("workstation.prefetch_dropped", d.f(cPrefetchDropped), n)
	l.set("cluster.failovers", d.f(cClusterFaults), n)
	l.set("wire.reconnects", d.f(cReconnects), n)
	l.set("server.encoded_hit_ratio", d.ratio(cEncodedHits, cEncodedMisses), both(cEncodedHits, cEncodedMisses))
	l.set("server.cache_hit_ratio", d.ratio(cCacheHits, cCacheMisses), both(cCacheHits, cCacheMisses))
	l.set("server.piece_reads_per_op", d.f(cPieceReads)/ops, n)
	l.set("server.bytes_out_per_op", d.f(cBytesOut)/ops, n)
	l.set("server.device_waits", d.f(cDeviceWaits), n)
	l.set("server.device_wait_ms", d.f(cDeviceWaitNS)/1e6, n)
	l.set("server.readahead_blocks", d.f(cReadAhead), n)
	l.set("server.shed", d.f(cServerShed), n)
	var seals, merges int64
	for i := range d.Seals {
		seals += d.Seals[i]
		merges += d.Merges[i]
	}
	l.set("index.segments", float64(d.Segments), 1)
	l.set("index.seals", float64(seals), 1)
	l.set("index.merges", float64(merges), 1)
	l.set("disk.reads_per_op", d.f(cDiskReads)/ops, n)
	l.set("disk.writes_per_op", d.f(cDiskWrites)/ops, n)
	l.set("disk.busy_model_ms_per_op", d.f(cDiskBusyNS)/1e6/ops, n)
	l.set("pool.fresh_ratio", d.ratio(cPoolAllocs, cPoolRecycled), both(cPoolAllocs, cPoolRecycled))
	l.set("go.gc_cycles", d.f(cGCCycles), 1)
	l.set("go.gc_pause_ms", d.f(cGCPauseNS)/1e6, int(d.get(cGCCycles)))
}

func (l *layerReport) fromSpans(s traceSummary) {
	l.set("http.self_us", s.HTTPSelfUS, s.Ops)
	l.set("gateway.handler_self_us", s.GatewaySelfUS, s.Ops)
	l.set("workstation.backend_calls_per_op", s.BackendPerOp, s.Ops)
	l.set("cluster.self_us", s.ClusterSelfUS, s.BackendSpans)
	l.set("cluster.fanout", s.Fanout, s.BackendSpans)
	l.set("wire.rtt_us", s.RTTUS, s.TransportSpans)
	l.set("wire.inflight_max", float64(s.InflightMax), s.TransportSpans)
	l.set("trace.coverage_ratio", s.Coverage, s.Ops)
}

// rung calls fn(i) for i = 0, 1, ... until limit calls or box has
// passed, timing batch calls per sample. fn may return a duration spent on
// something that is not the rung's (a re-query, the time below a seam).
// rung returns the median microseconds of one call with and without that
// share, and the number of calls made.
func rung(box time.Duration, batch, limit int, fn func(i int) (time.Duration, error)) (netUS, totalUS float64, calls int, err error) {
	var net, total []float64
	deadline := time.Now().Add(box)
	for calls+batch <= limit {
		var other time.Duration
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			d, err := fn(calls)
			if err != nil {
				return 0, 0, calls, err
			}
			other += d
			calls++
		}
		t1 := time.Now()
		total = append(total, float64(t1.Sub(t0))/1e3/float64(batch))
		net = append(net, float64(t1.Sub(t0)-other)/1e3/float64(batch))
		if t1.After(deadline) {
			break
		}
	}
	return median(net), median(total), calls, nil
}

// interleaved times fns back to back, round after round, rotating which
// goes first, so every rung sees the same scheduler and cache state and
// follows every other rung equally often. It returns each rung's samples
// in microseconds, one per round.
func interleaved(box time.Duration, fns ...func(i int) error) ([][]float64, error) {
	samples := make([][]float64, len(fns))
	deadline := time.Now().Add(box)
	for rounds := 0; rounds < rungCalls; rounds++ {
		t0 := time.Now()
		for j := range fns {
			k := (rounds + j) % len(fns)
			if err := fns[k](rounds); err != nil {
				return nil, err
			}
			t1 := time.Now()
			samples[k] = append(samples[k], float64(t1.Sub(t0))/1e3)
			t0 = t1
		}
		if t0.After(deadline) {
			break
		}
	}
	return samples, nil
}

// cycle returns ids[k*n : k*n+n], wrapping, so successive calls touch
// successive batches.
func cycle(ids []object.ID, k, n int) []object.ID {
	if len(ids) <= n {
		return ids
	}
	at := (k * n) % (len(ids) - n + 1)
	return ids[at : at+n]
}

// ladder is one traced run's walk up the rungs. The first rung that fails
// is kept in err and turns the rest into no-ops.
type ladder struct {
	ctx context.Context
	l   *live
	st  *stack
	c   *corpus
	tr  *tracer
	lay *layerReport
	box time.Duration // one rung's share of the ladder's time
	err error

	queries   []query
	own0, all []object.ID // shard 0's objects; every object
}

// runLadder times every rung the workload's corpus supports and records
// them on lay. The tracer stays on so rungs above the Backend seam can
// subtract the time their backend spans covered.
func runLadder(ctx context.Context, l *live, tr *tracer, lay *layerReport, budget time.Duration, pub *publisher) error {
	ld := &ladder{ctx: ctx, l: l, st: l.st, c: l.st.corpus, tr: tr, lay: lay, box: budget / 16}
	tr.on.Store(true)
	defer tr.on.Store(false)

	ld.queries = ld.c.Battery
	if len(ld.queries) == 0 {
		for term := range ld.c.Members {
			ld.queries = append(ld.queries, ld.c.groupQuery(term))
		}
		sort.Slice(ld.queries, func(a, b int) bool { return ld.queries[a].Q < ld.queries[b].Q })
	}
	for _, o := range ld.c.Objects {
		ld.all = append(ld.all, o.ID)
		if ld.c.Ring.Owner(o.ID) == 0 {
			ld.own0 = append(ld.own0, o.ID)
		}
	}
	ld.indexAndServer(pub)
	ld.wireAndCluster()
	ld.session()
	ld.hub()
	return ld.err
}

// time runs one rung and returns its medians (net of what fn reports as
// not its own, and total) and call count.
func (ld *ladder) time(name string, batch, limit int, fn func(i int) (time.Duration, error)) (netUS, totalUS float64, calls int) {
	if ld.err != nil {
		return 0, 0, 0
	}
	netUS, totalUS, calls, err := rung(ld.box, batch, limit, fn)
	if err != nil {
		ld.err = fmt.Errorf("%s: %w", name, err)
	}
	return netUS, totalUS, calls
}

// record runs one rung of plain calls and reports its median under name.
func (ld *ladder) record(name string, fn func(i int) error) float64 {
	us, _, calls := ld.time(name, 1, rungCalls, func(i int) (time.Duration, error) { return 0, fn(i) })
	if ld.err == nil {
		ld.lay.set(name, us, calls)
	}
	return us
}

// indexAndServer: Store.Search, then direct Server calls on the owning
// shard.
func (ld *ladder) indexAndServer(pub *publisher) {
	st, c := ld.st, ld.c
	var dst []object.ID
	hits := 0
	ld.record("index.search_us", func(i int) error {
		for _, srv := range st.servers {
			dst = srv.ContentIndex().Search(ld.queries[i%len(ld.queries)].IQ, dst[:0])
			hits += len(dst)
		}
		return nil
	})
	if n := ld.lay.res.PerLayer["index.search_us"].Samples; n > 0 {
		ld.lay.set("index.hits_per_query", float64(hits)/float64(n), n)
	}
	ld.record("server.query_planned_us", func(i int) error {
		for _, srv := range st.servers {
			srv.QueryPlanned(ld.queries[i%len(ld.queries)].IQ)
		}
		return nil
	})
	// Too quick to time singly: 64 calls per sample.
	us, _, calls := ld.time("server.miniature_encoded_ns", 64, rungCalls, func(i int) (time.Duration, error) {
		id := ld.all[i%len(ld.all)]
		if _, _, ok := st.servers[c.Ring.Owner(id)].MiniatureEncoded(id); !ok {
			return 0, fmt.Errorf("no miniature for %d", id)
		}
		return 0, nil
	})
	ld.lay.set("server.miniature_encoded_ns", us*1e3, calls)
	if len(c.Visual) > 0 {
		ld.record("server.descriptor_us", func(i int) error {
			id := c.Visual[i%len(c.Visual)]
			_, _, err := st.servers[c.Ring.Owner(id)].DescriptorAs(0, id)
			return err
		})
	}
	const piece = 4096
	dev := st.servers[0].Archiver().Device()
	if used := uint64(dev.Used()) * uint64(dev.BlockSize()); used > 2*piece {
		ld.record("server.read_piece_us", func(i int) error {
			_, _, err := st.servers[0].ReadPieceAs(0, (uint64(i)*piece)%(used-piece), piece)
			return err
		})
	}
	if pub != nil {
		// The writer has stopped; what it did not send is still unpublished.
		rest := pub.sent
		us, _, calls := ld.time("server.publish_us", 1, min(len(c.Pubs)-rest, rungCalls), func(i int) (time.Duration, error) {
			_, err := st.servers[c.PubShard[rest+i]].Publish(c.Pubs[rest+i])
			return 0, err
		})
		ld.lay.set("server.publish_us", us, calls)
	}
}

// wireAndCluster: one batch of rungBatch miniatures owned by shard 0,
// fetched in process and then four ways over TCP. The four are timed
// interleaved, call by call: a loopback round trip costs 15 us or 90 us
// depending on whether the runtime's threads are spinning or parked, so
// only rungs that share a moment can be subtracted from one another.
func (ld *ladder) wireAndCluster() {
	st, ctx := ld.st, ld.ctx
	batchIDs := func(i int) []object.ID { return cycle(ld.own0, i, rungBatch) }
	local := wire.NewClient(&wire.LocalTransport{H: &wire.Handler{Srv: st.servers[0]}})
	localUS := ld.record("wire.local_us", func(i int) error {
		_, _, err := local.MiniaturesCtx(ctx, batchIDs(i))
		return err
	})
	if ld.err != nil {
		return
	}
	mt, err := wire.DialMux(st.addrs[0])
	if err != nil {
		ld.err = err
		return
	}
	defer mt.Close()
	tcp := wire.NewClient(mt)
	plainCC, err := cluster.Dial(st.addrs[0], func(ep string) (wire.Transport, error) { return wire.DialMux(ep) })
	if err != nil {
		ld.err = err
		return
	}
	defer plainCC.Close()
	traced := st.backend(st.dialled[0])
	// The raw rung replays the bytes the wire client sends for each batch,
	// on the bare transport; a transport that only records them learns the
	// bytes without the benchmark knowing the wire format.
	reqs := make([][]byte, max(len(ld.own0)-rungBatch+1, 1))
	for i := range reqs {
		grab := &grabTransport{}
		wire.NewClient(grab).MiniaturesCtx(ctx, batchIDs(i)) // fails once the bytes are grabbed
		reqs[i] = grab.req
	}
	ld.tr.drain()
	got, err := interleaved(4*ld.box,
		func(i int) error { _, _, err := tcp.MiniaturesCtx(ctx, batchIDs(i)); return err },
		func(i int) error { _, _, err := plainCC.MiniaturesCtx(ctx, batchIDs(i)); return err },
		func(i int) error { _, err := mt.RoundTripCtx(ctx, reqs[i%len(reqs)]); return err },
		func(i int) error { _, _, err := traced.MiniaturesCtx(ctx, batchIDs(i)); return err },
	)
	if err != nil {
		ld.err = fmt.Errorf("wire rungs: %w", err)
		return
	}
	tcpUS, routedUS, rawUS, tracedUS, calls := got[0], got[1], got[2], got[3], len(got[0])
	ld.lay.set("wire.raw_tcp_us", median(rawUS), calls)
	ld.lay.set("wire.tcp_us", median(tcpUS), calls)
	ld.lay.set("wire.mux_tcp_self_us", median(tcpUS)-localUS, calls)
	ld.lay.set("cluster.miniatures_us", median(routedUS), calls)
	// Cross-check of the two mechanisms on the same calls: the seam's
	// "backend span - covered transport spans" against the rung difference
	// "traced routed call - raw round trip", taken pair by pair within a
	// round so that the round trip's skewed jitter cancels in the median.
	// The Transport seam sits below wire.Client, so the like-for-like lower
	// rung is the raw transport, not wire.tcp_us, which includes the codec.
	seam := summarize(ld.tr.drain()).ClusterSelfUS
	diffs := make([]float64, calls)
	for i := range diffs {
		diffs[i] = tracedUS[i] - rawUS[i]
	}
	if diff := median(diffs); diff > 0 {
		ld.lay.set("trace.ladder_agreement_ratio", seam/diff, calls)
	}
}

// belowBackend wraps a call so that the time its backend spans covered is
// reported as not the rung's own.
func (ld *ladder) belowBackend(fn func(i int) error) func(int) (time.Duration, error) {
	return func(i int) (time.Duration, error) {
		before := ld.tr.backendNanos.Load()
		err := fn(i)
		return time.Duration(ld.tr.backendNanos.Load() - before), err
	}
}

// untimed is the time fn took, for a rung to discount.
func untimed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// session: a workstation session as the hub builds it, stepping through
// the top query's results (re-queries are not timed), then opening objects.
func (ld *ladder) session() {
	if ld.err != nil {
		return
	}
	c, ctx := ld.c, ld.ctx
	ws := newSession(ld.st.backend(ld.st.dialled[0]))
	ws.EnablePrefetch(workstation.PrefetchConfig{Depth: prefetchDepth})
	defer ws.Detach()
	top := c.groupQuery(ladderTop)
	requery := func() error {
		n, err := ws.QueryCtx(ctx, top.Q)
		if err == nil {
			err = ld.l.v.hits(top, n)
		}
		return err
	}
	if ld.err = requery(); ld.err != nil {
		return
	}
	us, _, calls := ld.time("workstation.step_us", 1, rungCalls, func(int) (time.Duration, error) {
		if step, err := ws.NextMiniatureCtx(ctx); err != nil || !step.Done {
			return 0, err
		}
		return untimed(requery)
	})
	ld.lay.set("workstation.step_us", us, calls)
	if len(c.Visual) > 0 {
		self, total, calls := ld.time("workstation.open_us", 1, rungCalls, ld.belowBackend(func(i int) error {
			return ws.OpenObject(c.Visual[i%len(c.Visual)])
		}))
		ld.lay.set("workstation.open_us", total, calls)
		ld.lay.set("workstation.open_self_us", self, calls)
	}
}

// hub: the gateway's session core, driven directly.
func (ld *ladder) hub() {
	if ld.err != nil {
		return
	}
	c, ctx, hub := ld.c, ld.ctx, ld.st.hub
	sid, err := hub.Open()
	if err != nil {
		ld.err = err
		return
	}
	defer hub.CloseSession(sid)
	top := c.groupQuery(ladderTop)
	requery := func() error {
		n, err := hub.Query(ctx, sid, top.Q)
		if err == nil {
			err = ld.l.v.hits(top, n)
		}
		return err
	}
	if ld.err = requery(); ld.err != nil {
		return
	}
	us, _, calls := ld.time("gateway.step_us", 1, rungCalls, func(int) (time.Duration, error) {
		if ev, err := hub.Step(ctx, sid, 1); err != nil || !ev.Done {
			return 0, err
		}
		return untimed(requery)
	})
	ld.lay.set("gateway.step_us", us, calls)
	// A PNG-cache miss needs more objects than the cache holds twice over,
	// so a sequential sweep never finds its id resident.
	if len(ld.all) >= 512 {
		us, _, calls := ld.time("gateway.png_miss_us", 1, rungCalls, ld.belowBackend(func(i int) error {
			_, err := hub.MiniaturePNG(ctx, sid, ld.all[i%len(ld.all)])
			return err
		}))
		ld.lay.set("gateway.png_miss_us", us, calls)
	}
	if len(c.Visual) > 0 && ld.err == nil {
		if _, ld.err = hub.OpenObject(ctx, sid, c.Visual[0]); ld.err != nil {
			return
		}
		ld.record("gateway.view_png_us", func(int) error {
			_, err := hub.ViewPNG(sid)
			return err
		})
	}
}

// grabTransport keeps a copy of the last request it is given and fails
// the exchange; it exists to learn the bytes wire.Client sends for a call
// without the benchmark knowing the wire format.
type grabTransport struct{ req []byte }

func (g *grabTransport) RoundTrip(req []byte) ([]byte, error) {
	g.req = append([]byte(nil), req...)
	return nil, fmt.Errorf("grab transport: no peer")
}

func (g *grabTransport) Close() error { return nil }
