// Package gateway terminates many concurrent web browse sessions and maps
// each onto a workstation.Session over a shared pool of multiplexed
// backend connections — the presentation-server split: retrieval stays on
// the object servers, presentation renders here, and the browser receives
// only PNG frames and small JSON events.
//
// The package is layered so the serving transport is separable from the
// session core: Hub owns sessions, admission, the encoded-PNG cache and
// the push fan-out, and is driven directly by the E-GATE virtual-clock
// harness (internal/loadgen); Server (http.go) straps HTTP, WebSocket and
// SSE onto a Hub for real browsers.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"minos/internal/core"
	img "minos/internal/image"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/sched"
	"minos/internal/screen"
	"minos/internal/vclock"
	"minos/internal/workstation"
)

// Errors surfaced to transports; both map to retryable conditions at the
// HTTP layer (503 + Retry-After).
var (
	// ErrBusy is a fair-share admission shed: the session exceeded its
	// share of the gateway's backend-bound slots. Retry after a backoff.
	ErrBusy = errors.New("gateway: busy, retry")
	// ErrSessionLimit means the gateway is at its concurrent-session cap.
	ErrSessionLimit = errors.New("gateway: session limit reached")
	// ErrNoSession means the session id is unknown (expired or never
	// existed).
	ErrNoSession = errors.New("gateway: no such session")
)

// Config parameterizes a Hub.
type Config struct {
	// Backends is the shared connection pool. Session sid uses
	// Backends[(sid-1) % len] — fixed at open, so one user's browse state
	// (prefetch generations, stream resume) stays on one mux connection.
	// The Hub does not own the backends; the caller closes them after
	// Hub.Close.
	Backends []workstation.Backend
	// MaxSessions caps concurrently open sessions (0 = unbounded).
	MaxSessions int
	// StepSlots bounds backend-bound requests in flight across all
	// sessions, fair-shared per session by the sched admission gate
	// (0 = unbounded). A greedy client sheds against its own share first.
	StepSlots int
	// ScreenW, ScreenH size each session's rendered screen (default
	// 240x140, the workstation tests' geometry).
	ScreenW, ScreenH int
	// PNGCacheEntries sizes the gateway-wide encoded-PNG LRU (default
	// 256 entries; <0 disables caching).
	PNGCacheEntries int
	// Prefetch, when non-nil, enables the browse read-ahead pipeline on
	// every session with this configuration.
	Prefetch *workstation.PrefetchConfig
}

// Stats are the per-gateway counters exposed on /metrics.
type Stats struct {
	SessionsOpened int64
	SessionsActive int64
	SessionsDenied int64
	Queries        int64
	// PlannedQueries counts the subset of Queries that arrived as planned
	// queries (terms plus attribute predicates) through the GET endpoint
	// or Hub.QueryPlanned.
	PlannedQueries int64
	Steps          int64
	Opens          int64
	// Pushes counts events emitted to the push fan-out (browse steps,
	// progressive passes, opens); PushBytes their binary payload bytes.
	Pushes    int64
	PushBytes int64
	// DroppedPushes counts events a slow subscriber's buffer refused —
	// the subscriber sees a gap, the session is never blocked by it.
	DroppedPushes int64
	// PNGHits and PNGMisses count the gateway-wide miniature PNG LRU only.
	PNGHits   int64
	PNGMisses int64
	// ViewEncodes counts screen views that had to be encoded; ViewReuses
	// those served from the session's last view PNG because the rendered
	// frame had not changed (an open's event, then its view.png fetch).
	ViewEncodes int64
	ViewReuses  int64
	// Shed counts fair-share admission rejections (ErrBusy).
	Shed int64
}

// Event is one push to a web client: a browse step, a progressive
// miniature pass, or an opened object. JSON goes over the WebSocket text
// channel / SSE; PNG rides as a binary frame (or by Href fetch).
type Event struct {
	Kind   string    `json:"kind"` // "step" | "pass" | "opened"
	Obj    object.ID `json:"obj,omitempty"`
	Mode   string    `json:"mode,omitempty"`
	Stale  bool      `json:"stale,omitempty"`
	Done   bool      `json:"done,omitempty"`
	Pass   int       `json:"pass,omitempty"`
	Usable bool      `json:"usable,omitempty"`
	// Href is where the event's PNG can be (re)fetched.
	Href string `json:"href,omitempty"`
	// PNG is the event's encoded image, pushed as a binary WS frame and
	// measured by the E-GATE harness. Not part of the JSON event.
	PNG []byte `json:"-"`
}

// session is one web client's state: a workstation session plus its push
// subscribers. ops serializes user commands — a workstation session is a
// single user's and is not internally synchronized.
type session struct {
	sid uint64
	ws  *workstation.Session

	ops sync.Mutex

	// The last encoded view and the hash of the frame it shows, guarded by
	// ops. The bytes are immutable and shared with whoever was handed them.
	viewHash uint64
	viewPNG  []byte

	mu   sync.Mutex
	subs map[chan Event]struct{}
}

// Hub is the gateway's session core.
type Hub struct {
	cfg   Config
	adm   *sched.Admission
	cache *pngCache

	mu       sync.Mutex
	sessions map[uint64]*session
	nextSID  uint64
	closed   bool

	opened, denied        int64
	queries, steps, opens int64
	plannedQueries        int64
	pushes, pushBytes     int64
	droppedPushes         int64
	viewEncodes           int64
	viewReuses            int64
}

// New builds a Hub over a pool of backends.
func New(cfg Config) (*Hub, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: no backends")
	}
	if cfg.ScreenW <= 0 {
		cfg.ScreenW = 240
	}
	if cfg.ScreenH <= 0 {
		cfg.ScreenH = 140
	}
	if cfg.PNGCacheEntries == 0 {
		cfg.PNGCacheEntries = 256
	}
	if cfg.PNGCacheEntries < 0 {
		cfg.PNGCacheEntries = 0
	}
	return &Hub{
		cfg:      cfg,
		adm:      sched.NewAdmission(cfg.StepSlots),
		cache:    newPNGCache(cfg.PNGCacheEntries),
		sessions: map[uint64]*session{},
	}, nil
}

// newCoreConfig builds one session's presentation stack: its own screen
// and its own virtual clock (presentation timing is per-user state).
func (h *Hub) newCoreConfig() core.Config {
	return core.Config{
		Screen: screen.New(h.cfg.ScreenW, h.cfg.ScreenH),
		Clock:  vclock.New(),
	}
}

// Admission exposes the fair-share gate so transports (and the E-GATE
// harness) hold slots across the true span of backend-bound work.
func (h *Hub) Admission() *sched.Admission { return h.adm }

// BackendIndex reports which pool connection a session rides; the E-GATE
// harness uses it to attribute link time.
func (h *Hub) BackendIndex(sid uint64) int {
	return int((sid - 1) % uint64(len(h.cfg.Backends)))
}

// Open creates a session and returns its id (ids start at 1).
func (h *Hub) Open() (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, errors.New("gateway: hub closed")
	}
	if h.cfg.MaxSessions > 0 && len(h.sessions) >= h.cfg.MaxSessions {
		h.denied++
		return 0, ErrSessionLimit
	}
	h.nextSID++
	sid := h.nextSID
	be := h.cfg.Backends[(sid-1)%uint64(len(h.cfg.Backends))]
	ws := workstation.New(be, h.newCoreConfig())
	if h.cfg.Prefetch != nil {
		ws.EnablePrefetch(*h.cfg.Prefetch)
	}
	h.sessions[sid] = &session{sid: sid, ws: ws, subs: map[chan Event]struct{}{}}
	h.opened++
	return sid, nil
}

// CloseSession detaches a session. The shared backend stays open.
func (h *Hub) CloseSession(sid uint64) error {
	h.mu.Lock()
	s, ok := h.sessions[sid]
	delete(h.sessions, sid)
	h.mu.Unlock()
	if !ok {
		return ErrNoSession
	}
	s.mu.Lock()
	for ch := range s.subs {
		close(ch)
	}
	s.subs = map[chan Event]struct{}{}
	s.mu.Unlock()
	s.ws.Detach()
	return nil
}

// Close detaches every session. Backends belong to the caller and remain
// open.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	all := make([]uint64, 0, len(h.sessions))
	for sid := range h.sessions {
		all = append(all, sid)
	}
	h.mu.Unlock()
	for _, sid := range all {
		h.CloseSession(sid)
	}
}

func (h *Hub) get(sid uint64) (*session, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sessions[sid]
	if !ok {
		return nil, ErrNoSession
	}
	return s, nil
}

// Workstation exposes a session's underlying workstation session (the
// conformance and harness code reads FetchTime and prefetch stats off it).
func (h *Hub) Workstation(sid uint64) (*workstation.Session, error) {
	s, err := h.get(sid)
	if err != nil {
		return nil, err
	}
	return s.ws, nil
}

// Query submits a content query on a session.
func (h *Hub) Query(ctx context.Context, sid uint64, terms ...string) (int, error) {
	s, err := h.get(sid)
	if err != nil {
		return 0, err
	}
	s.ops.Lock()
	defer s.ops.Unlock()
	n, err := s.ws.QueryCtx(ctx, terms...)
	if err == nil {
		h.mu.Lock()
		h.queries++
		h.mu.Unlock()
	}
	return n, err
}

// QueryPlanned submits a planned content query — conjunctive terms plus
// attribute predicates — on a session through the same Backend seam, so it
// works identically over a single server and a routed fleet.
func (h *Hub) QueryPlanned(ctx context.Context, sid uint64, q index.Query) (int, error) {
	s, err := h.get(sid)
	if err != nil {
		return 0, err
	}
	s.ops.Lock()
	defer s.ops.Unlock()
	n, err := s.ws.QueryPlannedCtx(ctx, q)
	if err == nil {
		h.mu.Lock()
		h.queries++
		h.plannedQueries++
		h.mu.Unlock()
	}
	return n, err
}

// Step advances (dir >= 0) or rewinds (dir < 0) a session's browse cursor
// and pushes the resulting step event. The returned event carries the
// miniature PNG (warm cache: shared bytes, no pixel buffers touched).
func (h *Hub) Step(ctx context.Context, sid uint64, dir int) (Event, error) {
	s, err := h.get(sid)
	if err != nil {
		return Event{}, err
	}
	s.ops.Lock()
	defer s.ops.Unlock()
	var st workstation.BrowseStep
	if dir < 0 {
		st, err = s.ws.PrevMiniatureCtx(ctx)
	} else {
		st, err = s.ws.NextMiniatureCtx(ctx)
	}
	if err != nil {
		return Event{}, err
	}
	ev := Event{Kind: "step", Obj: st.ID, Stale: st.Stale, Done: st.Done}
	if !st.Done {
		ev.Mode = st.Mode.String()
		ev.Href = fmt.Sprintf("/session/%d/mini/%d.png", sid, st.ID)
		if st.Mini != nil {
			data, perr := h.cache.miniaturePNG(st.ID, st.Mini)
			if perr != nil {
				return Event{}, perr
			}
			ev.PNG = data
		}
	}
	h.mu.Lock()
	h.steps++
	h.mu.Unlock()
	h.push(s, ev)
	return ev, nil
}

// OpenObject presents an object on the session's screen and pushes the
// rendered view.
func (h *Hub) OpenObject(ctx context.Context, sid uint64, id object.ID) (Event, error) {
	s, err := h.get(sid)
	if err != nil {
		return Event{}, err
	}
	s.ops.Lock()
	defer s.ops.Unlock()
	if err := s.ws.OpenObject(id); err != nil {
		return Event{}, err
	}
	data, err := h.renderView(s)
	if err != nil {
		return Event{}, err
	}
	ev := Event{
		Kind: "opened", Obj: id,
		Href: fmt.Sprintf("/session/%d/view.png", sid),
		PNG:  data,
	}
	h.mu.Lock()
	h.opens++
	h.mu.Unlock()
	h.push(s, ev)
	return ev, nil
}

// renderView returns the session's current screen as PNG; the caller holds
// s.ops. A frame whose hash — the screen's snapshot identity — matches the
// last one encoded is answered with that encoding. The hash decides, not a
// dirty flag: the screen is mutated from layers that know nothing of the
// gateway, and the rendered frame is in hand here anyway.
func (h *Hub) renderView(s *session) ([]byte, error) {
	frame := s.ws.Manager().Screen().Render()
	defer frame.Release() // this call's own bitmap
	sum := frame.Hash()
	if s.viewPNG != nil && s.viewHash == sum {
		h.mu.Lock()
		h.viewReuses++
		h.mu.Unlock()
		return s.viewPNG, nil
	}
	data, err := encodePNG(frame)
	if err != nil {
		return nil, err
	}
	s.viewHash, s.viewPNG = sum, data
	h.mu.Lock()
	h.viewEncodes++
	h.mu.Unlock()
	return data, nil
}

// ViewPNG returns the session's current screen as PNG: the bytes of the
// last view when the screen has not changed since, a fresh encode otherwise.
// The slice is shared and immutable.
func (h *Hub) ViewPNG(sid uint64) ([]byte, error) {
	s, err := h.get(sid)
	if err != nil {
		return nil, err
	}
	s.ops.Lock()
	defer s.ops.Unlock()
	return h.renderView(s)
}

// MiniaturePNG serves an object's miniature as PNG: cache hit returns the
// shared encoded bytes untouched; a miss fetches the miniature through the
// session's backend, encodes, caches and releases the transient bitmap.
func (h *Hub) MiniaturePNG(ctx context.Context, sid uint64, id object.ID) ([]byte, error) {
	s, err := h.get(sid)
	if err != nil {
		return nil, err
	}
	if data, ok := h.cache.get(id, 0); ok {
		return data, nil
	}
	s.ops.Lock()
	defer s.ops.Unlock()
	res, dur, err := s.ws.Backend().MiniaturesCtx(ctx, []object.ID{id})
	if err != nil {
		return nil, err
	}
	s.ws.FetchTime += dur
	if len(res) == 0 || !res[0].OK {
		return nil, fmt.Errorf("gateway: no miniature for object %d", id)
	}
	bm := res[0].Mini
	data, err := h.cache.miniaturePNG(id, bm)
	bm.Release() // this fetch is the bitmap's only owner
	return data, err
}

// Progressive streams an object's miniature coarse-first, pushing a pass
// event (with the accumulating frame as PNG) per landed pass. Backends
// whose transport cannot open streams fall back to a single complete pass.
// The completed frame lands in the PNG cache, so the browse that follows
// the progressive preview serves warm.
func (h *Hub) Progressive(ctx context.Context, sid uint64, id object.ID) (workstation.ProgressivePaint, error) {
	s, err := h.get(sid)
	if err != nil {
		return workstation.ProgressivePaint{}, err
	}
	s.ops.Lock()
	defer s.ops.Unlock()
	pass := 0
	var pushErr error
	final, pp, err := s.ws.MiniatureProgressiveCtx(ctx, id, func(bm *img.Bitmap, usable bool, _ time.Duration) {
		pass++
		data, perr := encodePNG(bm)
		if perr != nil {
			if pushErr == nil {
				pushErr = perr
			}
			return
		}
		h.push(s, Event{
			Kind: "pass", Obj: id, Pass: pass, Usable: usable,
			Href: fmt.Sprintf("/session/%d/mini/%d.png", sid, id),
			PNG:  data,
		})
	})
	if err != nil {
		return pp, err
	}
	if pushErr != nil {
		return pp, pushErr
	}
	if _, cerr := h.cache.miniaturePNG(id, final); cerr != nil {
		return pp, cerr
	}
	return pp, nil
}

// push emits an event to a session's subscribers. Sends never block: a
// subscriber whose buffer is full loses the event (and is counted), the
// browsing session is never throttled by a slow viewer.
func (h *Hub) push(s *session, ev Event) {
	h.mu.Lock()
	h.pushes++
	h.pushBytes += int64(len(ev.PNG))
	h.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for ch := range s.subs {
		select {
		case ch <- ev:
		default:
			h.mu.Lock()
			h.droppedPushes++
			h.mu.Unlock()
		}
	}
}

// Subscribe attaches a push listener to a session. The returned cancel
// detaches it; the channel closes when the session closes.
func (h *Hub) Subscribe(sid uint64) (<-chan Event, func(), error) {
	s, err := h.get(sid)
	if err != nil {
		return nil, nil, err
	}
	ch := make(chan Event, 32)
	s.mu.Lock()
	s.subs[ch] = struct{}{}
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		if _, ok := s.subs[ch]; ok {
			delete(s.subs, ch)
			close(ch)
		}
		s.mu.Unlock()
	}
	return ch, cancel, nil
}

// Stats snapshots the gateway counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	st := Stats{
		SessionsOpened: h.opened,
		SessionsActive: int64(len(h.sessions)),
		SessionsDenied: h.denied,
		Queries:        h.queries,
		PlannedQueries: h.plannedQueries,
		Steps:          h.steps,
		Opens:          h.opens,
		Pushes:         h.pushes,
		PushBytes:      h.pushBytes,
		DroppedPushes:  h.droppedPushes,
		ViewEncodes:    h.viewEncodes,
		ViewReuses:     h.viewReuses,
	}
	h.mu.Unlock()
	st.PNGHits, st.PNGMisses = h.cache.counters()
	st.Shed = h.adm.Shed()
	return st
}

// WriteMetrics writes the gateway counters plus each pool backend's
// serving-side stats in a flat, scrape-friendly text format.
func (h *Hub) WriteMetrics(ctx context.Context, w io.Writer) error {
	st := h.Stats()
	fmt.Fprintf(w, "gateway_sessions_active %d\n", st.SessionsActive)
	fmt.Fprintf(w, "gateway_sessions_opened %d\n", st.SessionsOpened)
	fmt.Fprintf(w, "gateway_sessions_denied %d\n", st.SessionsDenied)
	fmt.Fprintf(w, "gateway_queries %d\n", st.Queries)
	fmt.Fprintf(w, "gateway_planned_queries %d\n", st.PlannedQueries)
	fmt.Fprintf(w, "gateway_steps %d\n", st.Steps)
	fmt.Fprintf(w, "gateway_opens %d\n", st.Opens)
	fmt.Fprintf(w, "gateway_pushes %d\n", st.Pushes)
	fmt.Fprintf(w, "gateway_push_bytes %d\n", st.PushBytes)
	fmt.Fprintf(w, "gateway_dropped_pushes %d\n", st.DroppedPushes)
	fmt.Fprintf(w, "gateway_png_cache_hits %d\n", st.PNGHits)
	fmt.Fprintf(w, "gateway_png_cache_misses %d\n", st.PNGMisses)
	fmt.Fprintf(w, "gateway_view_encodes %d\n", st.ViewEncodes)
	fmt.Fprintf(w, "gateway_view_reuses %d\n", st.ViewReuses)
	fmt.Fprintf(w, "gateway_shed %d\n", st.Shed)
	for i, be := range h.cfg.Backends {
		bs, err := be.StatsCtx(ctx)
		if err != nil {
			fmt.Fprintf(w, "backend_up{backend=\"%d\"} 0\n", i)
			continue
		}
		fmt.Fprintf(w, "backend_up{backend=\"%d\"} 1\n", i)
		fmt.Fprintf(w, "backend_piece_reads{backend=\"%d\"} %d\n", i, bs.PieceReads)
		fmt.Fprintf(w, "backend_bytes_out{backend=\"%d\"} %d\n", i, bs.BytesOut)
		fmt.Fprintf(w, "backend_cache_hits{backend=\"%d\"} %d\n", i, bs.CacheHits)
		fmt.Fprintf(w, "backend_cache_misses{backend=\"%d\"} %d\n", i, bs.CacheMiss)
		fmt.Fprintf(w, "backend_device_waits{backend=\"%d\"} %d\n", i, bs.DeviceWaits)
		fmt.Fprintf(w, "backend_shed{backend=\"%d\"} %d\n", i, bs.Shed)
		fmt.Fprintf(w, "backend_encoded_hits{backend=\"%d\"} %d\n", i, bs.EncodedHits)
		fmt.Fprintf(w, "backend_pool_allocs{backend=\"%d\"} %d\n", i, bs.PoolAllocs)
		fmt.Fprintf(w, "backend_pool_recycled{backend=\"%d\"} %d\n", i, bs.PoolRecycled)
	}
	return nil
}
