package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"minos/internal/cluster"
	"minos/internal/demo"
	"minos/internal/object"
	"minos/internal/pool"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// demoBackends builds n wire clients over one in-process demo corpus.
func demoBackends(t *testing.T, n int) []workstation.Backend {
	t.Helper()
	c, err := demo.Build(1<<15, 40)
	if err != nil {
		t.Fatalf("demo.Build: %v", err)
	}
	backends := make([]workstation.Backend, n)
	for i := range backends {
		backends[i] = wire.NewClient(&wire.LocalTransport{H: &wire.Handler{Srv: c.Server}})
	}
	t.Cleanup(func() {
		for _, be := range backends {
			be.Close()
		}
	})
	return backends
}

// fleetBackends builds n routed cluster clients over a `shards`-wide
// in-process fleet holding the standard sharded corpus.
func fleetBackends(t *testing.T, n, shards int) []workstation.Backend {
	t.Helper()
	sh, err := demo.BuildSharded(1<<15, 40, shards, cluster.DefaultVnodes)
	if err != nil {
		t.Fatalf("demo.BuildSharded: %v", err)
	}
	m := &cluster.Map{Epoch: 1, Vnodes: cluster.DefaultVnodes}
	handlers := map[string]*wire.Handler{}
	for i, srv := range sh.Servers {
		name := fmt.Sprintf("shard%d", i)
		handlers[name] = &wire.Handler{Srv: srv}
		m.Shards = append(m.Shards, cluster.Shard{ID: i, Primary: name})
	}
	enc := m.Encode()
	for _, srv := range sh.Servers {
		srv.SetClusterMap(m.Epoch, enc)
	}
	dial := func(ep string) (wire.Transport, error) {
		h, ok := handlers[ep]
		if !ok {
			return nil, fmt.Errorf("unknown endpoint %s", ep)
		}
		return &wire.LocalTransport{H: h}, nil
	}
	backends := make([]workstation.Backend, n)
	for i := range backends {
		cc, err := cluster.Dial("shard0", dial)
		if err != nil {
			t.Fatalf("cluster.Dial: %v", err)
		}
		backends[i] = cc
	}
	t.Cleanup(func() {
		for _, be := range backends {
			be.Close()
		}
	})
	return backends
}

func newTestHub(t *testing.T, backends []workstation.Backend) *Hub {
	t.Helper()
	h, err := New(Config{Backends: backends})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	t.Cleanup(h.Close)
	return h
}

// browseScript drives one canonical browse through the HTTP surface and
// returns the observable outcome: query hits and the object each step
// landed on. Used to prove fleet width is invisible above the Backend
// seam.
func browseScript(t *testing.T, ts *httptest.Server) (hits int, stepped []object.ID) {
	t.Helper()
	post := func(path string) []byte {
		resp, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, body)
		}
		return body
	}
	var open map[string]uint64
	if err := json.Unmarshal(post("/session"), &open); err != nil {
		t.Fatalf("open response: %v", err)
	}
	sid := open["session"]
	var q map[string]int
	if err := json.Unmarshal(post(fmt.Sprintf("/session/%d/query?q=hospital", sid)), &q); err != nil {
		t.Fatalf("query response: %v", err)
	}
	for i := 0; i < 5; i++ {
		var ev Event
		if err := json.Unmarshal(post(fmt.Sprintf("/session/%d/step?dir=next", sid)), &ev); err != nil {
			t.Fatalf("step response: %v", err)
		}
		if ev.Done {
			break
		}
		if ev.Kind != "step" || ev.Obj == 0 {
			t.Fatalf("bad step event: %+v", ev)
		}
		stepped = append(stepped, ev.Obj)
	}
	return q["hits"], stepped
}

// TestGatewayBrowseHTTP walks the whole HTTP surface end-to-end against a
// single-server backend pool: open, query, step, miniature PNG, open
// object, view PNG, metrics, close.
func TestGatewayBrowseHTTP(t *testing.T) {
	hub := newTestHub(t, demoBackends(t, 2))
	ts := httptest.NewServer(NewServer(hub))
	defer ts.Close()

	hits, stepped := browseScript(t, ts)
	if hits == 0 || len(stepped) == 0 {
		t.Fatalf("browse made no progress: hits=%d steps=%d", hits, len(stepped))
	}

	get := func(path string, wantType string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantType) {
			t.Fatalf("GET %s: content type %q, want %q", path, ct, wantType)
		}
		return body
	}
	pngMagic := []byte{0x89, 'P', 'N', 'G'}
	mini := get(fmt.Sprintf("/session/1/mini/%d.png", stepped[0]), "image/png")
	if !bytes.HasPrefix(mini, pngMagic) {
		t.Fatal("miniature response is not a PNG")
	}
	// Opening the stepped object renders it onto the session screen.
	resp, err := http.Post(fmt.Sprintf("%s/session/1/open?obj=%d", ts.URL, stepped[0]), "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("open object: %v status %v", err, resp)
	}
	resp.Body.Close()
	if view := get("/session/1/view.png", "image/png"); !bytes.HasPrefix(view, pngMagic) {
		t.Fatal("view response is not a PNG")
	}

	metrics := string(get("/metrics", "text/plain"))
	for _, want := range []string{
		"gateway_sessions_active 1",
		"gateway_steps",
		"gateway_png_cache_hits",
		// The open's event and the view.png fetch shared one encode.
		"gateway_view_encodes 1\n",
		"gateway_view_reuses 1\n",
		`backend_up{backend="0"} 1`,
		`backend_up{backend="1"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil || dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("close session: %v status %v", err, dresp)
	}
	dresp.Body.Close()
	if hub.Stats().SessionsActive != 0 {
		t.Fatal("session still active after DELETE")
	}
}

// TestGatewayFleetWidths runs the identical browse against 1-shard and
// 4-shard fleet backends: the observable outcome must match — the
// acceptance claim that fleet width never leaks above the Backend seam.
func TestGatewayFleetWidths(t *testing.T) {
	var baseHits int
	var baseSteps []object.ID
	for i, shards := range []int{1, 4} {
		hub := newTestHub(t, fleetBackends(t, 2, shards))
		ts := httptest.NewServer(NewServer(hub))
		hits, stepped := browseScript(t, ts)
		ts.Close()
		if len(stepped) == 0 {
			t.Fatalf("shards=%d: no steps", shards)
		}
		if i == 0 {
			baseHits, baseSteps = hits, stepped
			continue
		}
		if hits != baseHits {
			t.Fatalf("hits diverge across widths: %d vs %d", baseHits, hits)
		}
		if fmt.Sprint(baseSteps) != fmt.Sprint(stepped) {
			t.Fatalf("step trace diverges across widths:\n1 shard:  %v\n%d shards: %v", baseSteps, shards, stepped)
		}
	}
}

// TestWarmPNGAllocGuard is the acceptance alloc guard: once a
// miniature's encoding is cached, serving it again must touch no pooled
// pixel buffers — neither a Get (alloc or recycle) nor a Put.
func TestWarmPNGAllocGuard(t *testing.T) {
	hub := newTestHub(t, demoBackends(t, 1))
	ctx := context.Background()
	sid, err := hub.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := hub.Query(ctx, sid, "hospital"); err != nil {
		t.Fatalf("Query: %v", err)
	}
	ev, err := hub.Step(ctx, sid, 1)
	if err != nil || ev.Done {
		t.Fatalf("Step: %v done=%v", err, ev.Done)
	}
	// First serve warmed the cache (via the step above); re-serving must
	// return the identical shared bytes without pool traffic.
	first, err := hub.MiniaturePNG(ctx, sid, ev.Obj)
	if err != nil {
		t.Fatalf("MiniaturePNG: %v", err)
	}
	allocs0, recycled0 := pool.Counters()
	for i := 0; i < 50; i++ {
		data, err := hub.MiniaturePNG(ctx, sid, ev.Obj)
		if err != nil {
			t.Fatalf("warm MiniaturePNG: %v", err)
		}
		if &data[0] != &first[0] {
			t.Fatal("warm serve returned a copy, not the shared cached bytes")
		}
	}
	allocs1, recycled1 := pool.Counters()
	if allocs1 != allocs0 || recycled1 != recycled0 {
		t.Fatalf("warm serves touched the pool: allocs %d->%d, recycled %d->%d",
			allocs0, allocs1, recycled0, recycled1)
	}
	st := hub.Stats()
	if st.PNGHits == 0 {
		t.Fatalf("no PNG cache hits recorded: %+v", st)
	}
}

// sseEvent is one event off the SSE feed: its kind line and its JSON body.
type sseEvent struct {
	kind string
	Event
	PNG []byte `json:"png"`
}

// readSSE parses an SSE body into events; the channel closes when the
// response ends.
func readSSE(t *testing.T, body io.Reader) <-chan sseEvent {
	out := make(chan sseEvent, 64)
	go func() {
		defer close(out)
		sc := bufio.NewScanner(body)
		sc.Buffer(nil, 1<<20)
		var kind string
		for sc.Scan() {
			line := sc.Text()
			if k, ok := strings.CutPrefix(line, "event: "); ok {
				kind = k
			} else if data, ok := strings.CutPrefix(line, "data: "); ok {
				ev := sseEvent{kind: kind}
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Errorf("bad event JSON %q: %v", data, err)
					return
				}
				out <- ev
			}
		}
	}()
	return out
}

// TestGatewaySSE is the push contract: commands arrive as REST calls and
// every event they emit reaches the session's SSE feed — a step and an
// opened event whose hrefs fetch PNGs, every progressive pass with its PNG
// inline, the last one usable — and closing the session ends the feed.
func TestGatewaySSE(t *testing.T) {
	hub := newTestHub(t, demoBackends(t, 1))
	ts := httptest.NewServer(NewServer(hub))
	defer ts.Close()

	sid, err := hub.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	call := func(method, path string) []byte {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, body)
		}
		return body
	}
	pngMagic := []byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'}
	fetchPNG := func(href string) {
		t.Helper()
		if data := call(http.MethodGet, href); !bytes.HasPrefix(data, pngMagic) {
			t.Fatalf("GET %s is not a PNG", href)
		}
	}

	reqCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(reqCtx, http.MethodGet, fmt.Sprintf("%s/session/%d/events", ts.URL, sid), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// The subscription is attached once the handler flushes headers, which
	// Do has already observed: every command from here on is pushed.
	events := readSSE(t, resp.Body)
	next := func(kind string) sseEvent {
		t.Helper()
		var ev sseEvent
		ok := false
		select {
		case ev, ok = <-events:
		case <-time.After(10 * time.Second):
			t.Fatalf("no %s event on the SSE stream within 10s", kind)
		}
		if !ok {
			t.Fatalf("SSE stream closed before the %s event", kind)
		}
		if ev.kind != kind || ev.Kind != kind {
			t.Fatalf("got a %q event (JSON kind %q), want %q", ev.kind, ev.Kind, kind)
		}
		return ev
	}

	call(http.MethodPost, fmt.Sprintf("/session/%d/query?q=hospital", sid))
	call(http.MethodPost, fmt.Sprintf("/session/%d/step?dir=next", sid))
	step := next("step")
	if step.Obj == 0 || step.Href == "" || step.PNG != nil {
		t.Fatalf("step event: %+v (inline png %d bytes)", step.Event, len(step.PNG))
	}
	fetchPNG(step.Href)

	call(http.MethodPost, fmt.Sprintf("/session/%d/open?obj=%d", sid, step.Obj))
	opened := next("opened")
	if opened.Obj != step.Obj || opened.Href == "" || opened.PNG != nil {
		t.Fatalf("opened event: %+v (inline png %d bytes)", opened.Event, len(opened.PNG))
	}
	fetchPNG(opened.Href)

	var pp struct{ Passes int }
	if err := json.Unmarshal(call(http.MethodPost, fmt.Sprintf("/session/%d/progressive?obj=%d", sid, step.Obj)), &pp); err != nil {
		t.Fatalf("progressive response: %v", err)
	}
	if pp.Passes < 1 {
		t.Fatalf("progressive delivered %d passes", pp.Passes)
	}
	for i := 1; i <= pp.Passes; i++ {
		pass := next("pass")
		if pass.Obj != step.Obj || pass.Pass != i || !bytes.HasPrefix(pass.PNG, pngMagic) {
			t.Fatalf("pass %d/%d: %+v, inline png %d bytes", i, pp.Passes, pass.Event, len(pass.PNG))
		}
		if i == pp.Passes && !pass.Usable {
			t.Fatalf("last pass %d not usable", i)
		}
	}

	call(http.MethodDelete, fmt.Sprintf("/session/%d", sid))
	select {
	case ev, ok := <-events:
		if ok {
			t.Fatalf("event after DELETE: %q", ev.kind)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream still open 10s after DELETE")
	}
}

// TestRouteTable holds http.go's package comment to the routes NewServer
// registers: every METHOD /path row there resolves to exactly that
// pattern on the mux, and every registered pattern has a row.
func TestRouteTable(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "http.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil || f.Doc == nil {
		t.Fatalf("http.go package comment: %v", err)
	}
	row := regexp.MustCompile(`(?m)^\s+(GET|POST|PUT|PATCH|DELETE)\s+(/[^\s?]*)`)
	documented := map[string]bool{}
	srv := NewServer(nil)
	for _, m := range row.FindAllStringSubmatch(f.Doc.Text(), -1) {
		pattern := m[1] + " " + m[2]
		documented[pattern] = true
		path := strings.NewReplacer("{sid}", "7", "{obj}", "3.png").Replace(m[2])
		if _, got := srv.mux.Handler(httptest.NewRequest(m[1], path, nil)); got != pattern {
			t.Errorf("documented %q resolves to registered pattern %q", pattern, got)
		}
	}
	for _, rt := range srv.routes() {
		if !documented[rt.pattern] {
			t.Errorf("registered %q has no row in http.go's endpoint table", rt.pattern)
		}
	}
}
