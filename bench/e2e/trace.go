package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"minos/internal/descriptor"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/server"
	"minos/internal/voice"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// Seam spans. The code exposes four seams a benchmark can decorate without
// touching it: the client loop, the http.Handler in front of the gateway,
// the workstation.Backend each pool connection is, and the wire.Transport
// the cluster client dials. Below the transport there is none
// (wire.Handler.Srv is a concrete *server.Server) — spans inside the
// program are a later change.
//
// Parentage: a context carries the enclosing span's id across the
// gateway->backend and backend->transport seams wherever the code passes
// its context down (every Ctx call does), which stays exact under the
// cluster client's parallel fan-out and the prefetcher's background
// batches. Where it does not (Session.OpenObject uses
// context.Background), the traced run's single closed-loop client makes
// containment in time unambiguous. Spans launched without waiting
// (StartMiniatures: the prefetcher) are roots of their own, parent
// "background".

type layer uint8

const (
	layerClient layer = iota
	layerGateway
	layerBackend
	layerTransport
)

var layerNames = [...]string{"client", "gateway", "backend", "transport"}

const (
	noParent   int32 = 0
	background int32 = -1
	// spanRingCap bounds the in-memory trace: the most recent spans win.
	// 1<<19 covers a 6 s traced browse-warm window (~60k spans/s).
	spanRingCap = 1 << 19
)

type span struct {
	ID     int32
	Parent int32
	Layer  layer
	Async  bool   // launched without waiting; never on an op's blocking path
	Name   string // method or route; always a constant string
	Start  int64  // ns since the tracer's epoch
	End    int64
	Op     int64 // client spans: the op's sequence number
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int32

	mu   sync.Mutex
	ring []span
	n    int // spans ever recorded; ring[n%cap] is next

	// backendNanos accumulates the duration of waited-for backend spans,
	// so a ladder rung above the Backend seam can subtract the time spent
	// below it.
	backendNanos atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ring: make([]span, spanRingCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

type spanKey struct{}

// begin opens a span whose parent is whatever span ctx carries. It returns
// the span (to be passed to end) and a context carrying the new span's id.
// The start stamp is taken first and the end stamp last, so a span's own
// bookkeeping (about a microsecond) falls inside it — into its layer's
// self time — and a traced call timed from outside equals its span.
func (t *tracer) begin(ctx context.Context, l layer, name string, async bool) (span, context.Context) {
	sp := span{Start: t.now(), Layer: l, Name: name, Async: async}
	sp.ID = t.ids.Add(1)
	if p, ok := ctx.Value(spanKey{}).(int32); ok {
		sp.Parent = p
	}
	if async {
		sp.Parent = background
	}
	return sp, context.WithValue(ctx, spanKey{}, sp.ID)
}

func (t *tracer) end(sp span) {
	t.mu.Lock()
	slot := &t.ring[t.n%len(t.ring)]
	t.n++
	*slot = sp
	slot.End = t.now()
	d := slot.dur()
	t.mu.Unlock()
	if sp.Layer == layerBackend && !sp.Async {
		t.backendNanos.Add(d)
	}
}

// clientSpan records a finished client op, timed by the load loop itself.
func (t *tracer) clientSpan(start, end time.Time, seq int64) {
	sp := span{ID: t.ids.Add(1), Layer: layerClient, Name: "op", Op: seq,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.ring[t.n%len(t.ring)] = sp
	t.n++
	t.mu.Unlock()
}

// drain returns the recorded spans, oldest first, and empties the ring.
func (t *tracer) drain() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := min(t.n, len(t.ring))
	out := make([]span, 0, k)
	for i := t.n - k; i < t.n; i++ {
		out = append(out, t.ring[i%len(t.ring)])
	}
	t.n = 0
	return out
}

// middleware wraps the gateway's http.Handler in a gateway span and hands
// the span to the handler through the request context.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		sp, ctx := t.begin(r.Context(), layerGateway, r.Method, false)
		next.ServeHTTP(w, r.WithContext(ctx))
		t.end(sp)
	})
}

// tracedBackend decorates a pool connection. The embedded Backend serves
// Reconnects and Close; the eleven calls that do work get a span each.
type tracedBackend struct {
	workstation.Backend
	tr *tracer
}

var _ workstation.Backend = (*tracedBackend)(nil)

// call runs fn inside a backend span.
func (b *tracedBackend) call(ctx context.Context, name string, fn func(context.Context)) {
	if !b.tr.on.Load() {
		fn(ctx)
		return
	}
	sp, ctx := b.tr.begin(ctx, layerBackend, name, false)
	fn(ctx)
	b.tr.end(sp)
}

func (b *tracedBackend) QueryCtx(ctx context.Context, terms ...string) (ids []object.ID, d time.Duration, err error) {
	b.call(ctx, "Query", func(ctx context.Context) { ids, d, err = b.Backend.QueryCtx(ctx, terms...) })
	return
}

func (b *tracedBackend) QueryPlannedCtx(ctx context.Context, q index.Query) (ids []object.ID, d time.Duration, err error) {
	b.call(ctx, "QueryPlanned", func(ctx context.Context) { ids, d, err = b.Backend.QueryPlannedCtx(ctx, q) })
	return
}

func (b *tracedBackend) ListCtx(ctx context.Context) (ids []object.ID, d time.Duration, err error) {
	b.call(ctx, "List", func(ctx context.Context) { ids, d, err = b.Backend.ListCtx(ctx) })
	return
}

func (b *tracedBackend) DescriptorCtx(ctx context.Context, id object.ID) (desc *descriptor.Descriptor, d time.Duration, err error) {
	b.call(ctx, "Descriptor", func(ctx context.Context) { desc, d, err = b.Backend.DescriptorCtx(ctx, id) })
	return
}

func (b *tracedBackend) ObjectPieceCtx(ctx context.Context, id object.ID, off, length uint64) (data []byte, d time.Duration, err error) {
	b.call(ctx, "ObjectPiece", func(ctx context.Context) { data, d, err = b.Backend.ObjectPieceCtx(ctx, id, off, length) })
	return
}

func (b *tracedBackend) MiniaturesCtx(ctx context.Context, ids []object.ID) (res []wire.MiniatureResult, d time.Duration, err error) {
	b.call(ctx, "Miniatures", func(ctx context.Context) { res, d, err = b.Backend.MiniaturesCtx(ctx, ids) })
	return
}

// StartMiniatures' span runs from the launch to the return of Wait.
func (b *tracedBackend) StartMiniatures(ctx context.Context, ids []object.ID) wire.MiniatureBatch {
	if !b.tr.on.Load() {
		return b.Backend.StartMiniatures(ctx, ids)
	}
	sp, ctx := b.tr.begin(ctx, layerBackend, "StartMiniatures", true)
	return &tracedBatch{MiniatureBatch: b.Backend.StartMiniatures(ctx, ids), tr: b.tr, sp: sp}
}

type tracedBatch struct {
	wire.MiniatureBatch
	tr *tracer
	sp span
}

func (p *tracedBatch) Wait() ([]wire.MiniatureResult, time.Duration, error) {
	res, d, err := p.MiniatureBatch.Wait()
	p.tr.end(p.sp)
	return res, d, err
}

func (b *tracedBackend) ModeCtx(ctx context.Context, id object.ID) (m object.Mode, err error) {
	b.call(ctx, "Mode", func(ctx context.Context) { m, err = b.Backend.ModeCtx(ctx, id) })
	return
}

func (b *tracedBackend) VoicePreviewCtx(ctx context.Context, id object.ID) (vp *voice.Part, d time.Duration, err error) {
	b.call(ctx, "VoicePreview", func(ctx context.Context) { vp, d, err = b.Backend.VoicePreviewCtx(ctx, id) })
	return
}

func (b *tracedBackend) VoiceStreamCtx(ctx context.Context, id object.ID, from uint64, window int) (info wire.VoiceStreamInfo, sc wire.StreamConn, err error) {
	b.call(ctx, "VoiceStream", func(ctx context.Context) { info, sc, err = b.Backend.VoiceStreamCtx(ctx, id, from, window) })
	return
}

func (b *tracedBackend) MiniatureStreamCtx(ctx context.Context, id object.ID, from uint64, window int) (info wire.MiniatureStreamInfo, sc wire.StreamConn, err error) {
	b.call(ctx, "MiniatureStream", func(ctx context.Context) { info, sc, err = b.Backend.MiniatureStreamCtx(ctx, id, from, window) })
	return
}

func (b *tracedBackend) StatsCtx(ctx context.Context) (st server.Stats, err error) {
	b.call(ctx, "Stats", func(ctx context.Context) { st, err = b.Backend.StatsCtx(ctx) })
	return
}

// tracedTransport decorates the multiplexed TCP transport. Embedding keeps
// HelloExtra (the cluster map rides it), Version and Close; every way a
// request can leave — blocking, pipelined, stream open — gets a span, so
// the wire client finds the same ContextPipeliner and StreamOpener it
// would without tracing and takes the same path.
type tracedTransport struct {
	*wire.MuxTransport
	tr *tracer
}

var (
	_ wire.ContextTransport = (*tracedTransport)(nil)
	_ wire.ContextPipeliner = (*tracedTransport)(nil)
	_ wire.StreamOpener     = (*tracedTransport)(nil)
)

func (t *tracedTransport) RoundTrip(req []byte) ([]byte, error) {
	return t.RoundTripCtx(context.Background(), req)
}

func (t *tracedTransport) RoundTripCtx(ctx context.Context, req []byte) ([]byte, error) {
	if !t.tr.on.Load() {
		return t.MuxTransport.RoundTripCtx(ctx, req)
	}
	sp, _ := t.tr.begin(ctx, layerTransport, "RoundTrip", false)
	resp, err := t.MuxTransport.RoundTripCtx(ctx, req)
	t.tr.end(sp)
	return resp, err
}

func (t *tracedTransport) Start(req []byte) wire.Pending {
	return t.StartCtx(context.Background(), req)
}

func (t *tracedTransport) StartCtx(ctx context.Context, req []byte) wire.Pending {
	if !t.tr.on.Load() {
		return t.MuxTransport.StartCtx(ctx, req)
	}
	sp, _ := t.tr.begin(ctx, layerTransport, "Start", false)
	return &tracedPending{Pending: t.MuxTransport.StartCtx(ctx, req), tr: t.tr, sp: sp}
}

type tracedPending struct {
	wire.Pending
	tr *tracer
	sp span
}

func (p *tracedPending) Wait() ([]byte, error) {
	resp, err := p.Pending.Wait()
	p.tr.end(p.sp)
	return resp, err
}

func (t *tracedTransport) OpenStream(ctx context.Context, req []byte) ([]byte, time.Duration, wire.StreamConn, error) {
	if !t.tr.on.Load() {
		return t.MuxTransport.OpenStream(ctx, req)
	}
	sp, _ := t.tr.begin(ctx, layerTransport, "OpenStream", false)
	meta, dev, sc, err := t.MuxTransport.OpenStream(ctx, req)
	t.tr.end(sp)
	return meta, dev, sc, err
}

// --- analysis ---

// traceSummary is what the seam spans of one traced window say.
type traceSummary struct {
	Ops             int
	HTTPSelfUS      float64 // median per op: client span - gateway spans
	GatewaySelfUS   float64 // median per op: gateway spans - covered backend spans
	ClusterSelfUS   float64 // median per backend span: span - covered transport spans
	Fanout          float64 // transport spans per backend span
	BackendPerOp    float64
	RTTUS           float64 // median transport span
	InflightMax     int
	Coverage        float64 // sum of self times on ops' blocking trees / sum of client spans
	BackendSpans    int
	TransportSpans  int
	BackgroundSpans int
}

// resolveParents fills in the parent of every span that did not get one
// from a context: the innermost waited-for span of a higher layer that
// contains it in time, else background.
func resolveParents(spans []span) {
	var byLayer [len(layerNames)][]int
	for i, sp := range spans {
		if !sp.Async {
			byLayer[sp.Layer] = append(byLayer[sp.Layer], i)
		}
	}
	for l := range byLayer {
		idx := byLayer[l]
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Parent != noParent || sp.Layer == layerClient {
			continue
		}
		sp.Parent = background
		for l := int(sp.Layer) - 1; l >= 0 && sp.Parent == background; l-- {
			idx := byLayer[l]
			// Last span of layer l starting at or before sp; with one
			// closed-loop client the waited-for spans of a layer above
			// the transport do not overlap, so it is the only candidate.
			k := sort.Search(len(idx), func(k int) bool { return spans[idx[k]].Start > sp.Start }) - 1
			if k >= 0 && spans[idx[k]].End >= sp.End {
				sp.Parent = spans[idx[k]].ID
			}
		}
	}
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var sum int64
	at := lo
	for _, k := range kids {
		s, e := max(k.Start, at), min(k.End, hi)
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

func summarize(spans []span) traceSummary {
	resolveParents(spans)
	byID := make(map[int32]int, len(spans))
	kids := map[int32][]span{}
	for i, sp := range spans {
		byID[sp.ID] = i
		if sp.Parent > 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] = sp.dur() - covered(sp.Start, sp.End, kids[sp.ID])
	}
	// root walks up to the client span a span blocks, if any.
	root := func(i int) (int, bool) {
		for hops := 0; hops < len(layerNames); hops++ {
			sp := spans[i]
			if sp.Layer == layerClient {
				return i, true
			}
			p, ok := byID[sp.Parent]
			if !ok || sp.Async {
				return 0, false
			}
			i = p
		}
		return 0, false
	}
	type opAcc struct{ client, gateway, tree int64 }
	ops := map[int]*opAcc{}
	var sum traceSummary
	var clusterSelf, rtt []float64
	var clientTotal, treeTotal int64
	var edges []edge
	for i, sp := range spans {
		switch sp.Layer {
		case layerBackend:
			sum.BackendSpans++
			clusterSelf = append(clusterSelf, float64(self[i])/1e3)
		case layerTransport:
			sum.TransportSpans++
			rtt = append(rtt, float64(sp.dur())/1e3)
			edges = append(edges, edge{sp.Start, 1}, edge{sp.End, -1})
		}
		r, ok := root(i)
		if !ok {
			if sp.Layer != layerClient {
				sum.BackgroundSpans++
			}
			continue
		}
		acc := ops[r]
		if acc == nil {
			acc = &opAcc{}
			ops[r] = acc
		}
		acc.tree += self[i]
		switch sp.Layer {
		case layerClient:
			acc.client = self[i]
			clientTotal += sp.dur()
		case layerGateway:
			acc.gateway += self[i]
		}
	}
	var httpSelf, gwSelf []float64
	for _, acc := range ops {
		httpSelf = append(httpSelf, float64(acc.client)/1e3)
		gwSelf = append(gwSelf, float64(acc.gateway)/1e3)
		treeTotal += acc.tree
	}
	sum.Ops = len(ops)
	sum.HTTPSelfUS = median(httpSelf)
	sum.GatewaySelfUS = median(gwSelf)
	sum.ClusterSelfUS = median(clusterSelf)
	sum.RTTUS = median(rtt)
	if sum.BackendSpans > 0 {
		sum.Fanout = float64(sum.TransportSpans) / float64(sum.BackendSpans)
	}
	if sum.Ops > 0 {
		sum.BackendPerOp = float64(sum.BackendSpans) / float64(sum.Ops)
	}
	if clientTotal > 0 {
		sum.Coverage = float64(treeTotal) / float64(clientTotal)
	}
	sum.InflightMax = maxDepth(edges)
	return sum
}

type edge struct {
	at int64
	d  int
}

// maxDepth is the largest number of intervals open at once.
func maxDepth(edges []edge) int {
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return edges[a].d < edges[b].d // close before open at the same instant
	})
	depth, best := 0, 0
	for _, e := range edges {
		depth += e.d
		best = max(best, depth)
	}
	return best
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		parent := any(sp.Parent)
		if sp.Parent == background {
			parent = "background"
		}
		rec := map[string]any{
			"id": sp.ID, "parent": parent, "layer": layerNames[sp.Layer], "name": sp.Name,
			"start_ns": sp.Start, "end_ns": sp.End,
		}
		if sp.Layer == layerClient {
			rec["op"] = sp.Op
		}
		if sp.Async {
			rec["async"] = true
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
