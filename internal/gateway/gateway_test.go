package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
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

// TestGatewayWSBrowse drives a browse over the real WebSocket surface: a
// raw TCP client upgrades, issues text commands, and receives the JSON
// event and its binary PNG frame.
func TestGatewayWSBrowse(t *testing.T) {
	hub := newTestHub(t, demoBackends(t, 1))
	ts := httptest.NewServer(NewServer(hub))
	defer ts.Close()

	sid, err := hub.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "GET /session/%d/ws HTTP/1.1\r\nHost: gw\r\nConnection: Upgrade\r\nUpgrade: websocket\r\nSec-WebSocket-Version: 13\r\nSec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n", sid)
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil || !strings.Contains(status, "101") {
		t.Fatalf("handshake status %q (%v)", status, err)
	}
	sawAccept := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("handshake headers: %v", err)
		}
		if strings.HasPrefix(line, "Sec-WebSocket-Accept: s3pPLMBiTxaQ9kYGzzhZRbK+xOo=") {
			sawAccept = true
		}
		if line == "\r\n" {
			break
		}
	}
	if !sawAccept {
		t.Fatal("handshake missing the accept key")
	}

	mask := [4]byte{0xaa, 0xbb, 0xcc, 0xdd}
	send := func(cmd string) {
		if _, err := conn.Write(appendWSFrameMasked(nil, true, wsOpText, mask, []byte(cmd))); err != nil {
			t.Fatalf("send %q: %v", cmd, err)
		}
	}
	recvText := func() map[string]any {
		op, payload := readServerFrame(t, br)
		if op != wsOpText {
			t.Fatalf("expected text frame, got opcode %d", op)
		}
		var m map[string]any
		if err := json.Unmarshal(payload, &m); err != nil {
			t.Fatalf("bad event JSON %q: %v", payload, err)
		}
		return m
	}

	send("query hospital")
	if m := recvText(); m["kind"] != "hits" || m["hits"].(float64) == 0 {
		t.Fatalf("query reply: %v", m)
	}
	send("next")
	ev := recvText()
	if ev["kind"] != "step" {
		t.Fatalf("push event: %v", ev)
	}
	op, png := readServerFrame(t, br)
	if op != wsOpBinary || !bytes.HasPrefix(png, []byte{0x89, 'P', 'N', 'G'}) {
		t.Fatalf("push PNG frame: opcode %d, %d bytes", op, len(png))
	}
	send("bogus")
	if m := recvText(); m["kind"] != "error" {
		t.Fatalf("unknown command reply: %v", m)
	}
	// Clean close: server echoes the close frame.
	conn.Write(appendWSFrameMasked(nil, true, wsOpClose, mask, nil))
	if op, _ := readServerFrame(t, br); op != wsOpClose {
		t.Fatalf("close echoed with opcode %d", op)
	}
}

// TestGatewaySSE checks the fallback push path: a subscribed SSE client
// sees the step event another transport triggers.
func TestGatewaySSE(t *testing.T) {
	hub := newTestHub(t, demoBackends(t, 1))
	ts := httptest.NewServer(NewServer(hub))
	defer ts.Close()

	ctx := context.Background()
	sid, err := hub.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := hub.Query(ctx, sid, "hospital"); err != nil {
		t.Fatalf("Query: %v", err)
	}
	reqCtx, cancel := context.WithCancel(ctx)
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

	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	// The subscription is attached once the handler flushes headers, which
	// Do has already observed; a step now must be pushed.
	if _, err := hub.Step(ctx, sid, 1); err != nil {
		t.Fatalf("Step: %v", err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("SSE stream closed before the step event")
			}
			if line == "event: step" {
				return
			}
		case <-deadline:
			t.Fatal("no step event on the SSE stream within 10s")
		}
	}
}
