package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"minos/internal/object"
	"minos/internal/workstation"
)

// Load generation. Clients are closed-loop with zero think time: a user
// waits for each reply before the next request, so each client sends its
// next op only when the previous one has been read to the last body byte.
// Each HTTP client owns one keep-alive connection. The only open loop is
// publish-browse's writer, which sends on a fixed schedule and is timed
// from each write's due time.

// A run moves through phases: idle (clients run, nothing is recorded:
// warm-up and the gaps between windows), one or two numbered measurement
// windows, then done.
const (
	phaseDone int32 = -1
	phaseIdle int32 = 0
	maxWindow       = 2
)

// opResult is one primary operation as the client saw it.
type opResult struct {
	start, first, end time.Time
	bytes             int
	err               error
	// deep, if set, is the expensive check; it runs on one op in
	// deepEvery, after end.
	deep func() error
}

// recorder accumulates one client's share of one window.
type recorder struct {
	lat, first        []time.Duration
	bytes             int64
	attempted, failed int64
	failures          []string // first few, for the report
	// voice-stream, traced runs only: data frames and the gaps between them.
	chunks    int64
	chunkGaps []time.Duration
}

// recorders holds a client's recorder per phase; index 0 collects the
// failures that happen outside any window.
type recorders [maxWindow + 1]recorder

func (r *recorder) fail(err error) {
	r.attempted++
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *recorder) ok(res opResult) {
	r.attempted++
	r.lat = append(r.lat, res.end.Sub(res.start))
	r.first = append(r.first, res.first.Sub(res.start))
	r.bytes += int64(res.bytes)
}

// merge folds o into r.
func (r *recorder) merge(o *recorder) {
	r.lat = append(r.lat, o.lat...)
	r.first = append(r.first, o.first...)
	r.bytes += o.bytes
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
	r.chunks += o.chunks
	r.chunkGaps = append(r.chunkGaps, o.chunkGaps...)
}

// runner sequences the phases for every client of a run.
type runner struct {
	phase atomic.Int32
	// completed counts recorded ops across all clients, so the window can
	// be read in slices while it runs.
	completed atomic.Int64
	// attempts counts every op in every phase; the warm-up waits on it.
	attempts atomic.Int64
	tr       *tracer // nil on untraced runs
}

func (rn *runner) tracing() bool { return rn.tr != nil && rn.tr.on.Load() }

// loop drives one closed-loop client until the run ends. A successful op
// counts only when it starts and ends inside one window; a failed op
// counts whenever it happens, so a warm-up failure still fails the run.
func (rn *runner) loop(recs *recorders, next func(rec *recorder) opResult) {
	for seq := int64(0); ; seq++ {
		ph := rn.phase.Load()
		if ph == phaseDone {
			return
		}
		rec := &recs[ph]
		res := next(rec)
		rn.attempts.Add(1)
		if res.err == nil && rn.tracing() {
			rn.tr.clientSpan(res.start, res.end, seq)
		}
		if res.err == nil && res.deep != nil && seq%deepEvery == 0 {
			res.err = res.deep()
		}
		switch {
		case res.err != nil:
			rec.fail(res.err)
		case ph != phaseIdle && rn.phase.Load() == ph:
			rec.ok(res)
			rn.completed.Add(1)
		}
	}
}

// --- HTTP client ---

// httpClient is one browser: its own keep-alive connection and session.
type httpClient struct {
	hc   *http.Client
	base string
	sid  uint64
	body bytes.Buffer // reused response buffer; valid until the next call
}

func newHTTPClient(base string) (*httpClient, error) {
	c := &httpClient{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: base,
	}
	if _, err := c.do(http.MethodPost, "/session"); err != nil {
		return nil, err
	}
	var out struct{ Session uint64 }
	if err := json.Unmarshal(c.body.Bytes(), &out); err != nil || out.Session == 0 {
		return nil, fmt.Errorf("open session: bad reply %q", c.body.Bytes())
	}
	c.sid = out.Session
	return c, nil
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do performs one request, reads the whole body into c.body, and returns
// when the response headers arrived. Anything but 200 is an error: a 503
// is the gateway shedding, which the workloads are sized never to cause.
func (c *httpClient) do(method, path string) (headersAt time.Time, err error) {
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return time.Time{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return time.Time{}, err
	}
	headersAt = time.Now()
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return headersAt, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return headersAt, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	return headersAt, nil
}

// query runs a content query (POST for plain terms, GET for the planned
// grammar) and returns the hit count and when the response headers came.
func (c *httpClient) query(method string, q string) (hits int, headersAt time.Time, err error) {
	headersAt, err = c.do(method, fmt.Sprintf("/session/%d/query?q=%s", c.sid, url.QueryEscape(q)))
	if err != nil {
		return 0, headersAt, err
	}
	var out struct{ Hits *int }
	if err := json.Unmarshal(c.body.Bytes(), &out); err != nil || out.Hits == nil {
		return 0, headersAt, fmt.Errorf("query %q: bad reply %q", q, c.body.Bytes())
	}
	return *out.Hits, headersAt, nil
}

// event is the part of a gateway.Event the client reads.
type event struct {
	Kind string
	Obj  object.ID
	Done bool
	Href string
}

// eventThenPNG is the shape of both HTTP primary ops: a POST answering an
// event, then a GET of the image it points to. On return c.body holds the
// PNG.
func (c *httpClient) eventThenPNG(post string, href func(event) string) (ev event, res opResult) {
	res.start = time.Now()
	res.first, res.err = c.do(http.MethodPost, post)
	if res.err != nil {
		return
	}
	res.bytes = c.body.Len()
	if err := json.Unmarshal(c.body.Bytes(), &ev); err != nil {
		res.err = fmt.Errorf("POST %s: bad event %q", post, c.body.Bytes())
		return
	}
	if _, res.err = c.do(http.MethodGet, href(ev)); res.err != nil {
		return
	}
	res.end = time.Now()
	res.bytes += c.body.Len()
	return
}

// --- browse: step + miniature PNG ---

// browser walks one group's result list. Warm mode goes to the end and
// back (the list stays cached); cold mode goes front to back only. Either
// way it re-queries when the walk is over.
type browser struct {
	c       *httpClient
	v       *verifier
	q       query
	members []object.ID
	cold    bool

	pos     int // cursor; -1 after a query
	back    bool
	queried bool
}

func (b *browser) next(*recorder) opResult {
	if !b.queried {
		hits, _, err := b.c.query(http.MethodPost, b.q.Q)
		if err == nil {
			err = b.v.hits(b.q, hits)
		}
		if err != nil {
			return opResult{err: err}
		}
		b.queried, b.pos, b.back = true, -1, false
	}
	dir, want := "next", b.pos+1
	if b.back {
		dir, want = "prev", b.pos-1
	}
	ev, res := b.c.eventThenPNG(fmt.Sprintf("/session/%d/step?dir=%s", b.c.sid, dir), func(ev event) string { return ev.Href })
	if res.err != nil {
		return res
	}
	id := b.members[want]
	if ev.Kind != "step" || ev.Done || ev.Obj != id {
		res.err = fmt.Errorf("step %s to %d: got %+v, want object %d", dir, want, ev, id)
		return res
	}
	res.deep = func() error { return b.v.miniaturePNG(id, b.c.body.Bytes()) }
	b.pos = want
	last := len(b.members) - 1
	switch {
	case !b.back && b.pos == last && b.cold:
		b.queried = false
	case !b.back && b.pos == last:
		b.back = true
	case b.back && b.pos == 0:
		b.queried = false
	}
	return res
}

// --- open-view: present an object + screen PNG ---

type opener struct {
	c   *httpClient
	v   *verifier
	ids []object.ID // visual objects, drawn uniformly
	r   *rng
}

func (o *opener) next(*recorder) opResult {
	id := o.ids[o.r.intn(len(o.ids))]
	ev, res := o.c.eventThenPNG(fmt.Sprintf("/session/%d/open?obj=%d", o.c.sid, id),
		func(event) string { return fmt.Sprintf("/session/%d/view.png", o.c.sid) })
	if res.err != nil {
		return res
	}
	if ev.Kind != "opened" || ev.Obj != id {
		res.err = fmt.Errorf("open %d: got %+v", id, ev)
		return res
	}
	res.deep = func() error { return o.v.viewPNG(o.c.body.Bytes()) }
	return res
}

// --- query-planned: GET query ---

type querier struct {
	c       *httpClient
	v       *verifier
	battery []query
	at      int
}

func (q *querier) next(*recorder) opResult {
	qu := q.battery[q.at%len(q.battery)]
	q.at++
	var res opResult
	var hits int
	res.start = time.Now()
	hits, res.first, res.err = q.c.query(http.MethodGet, qu.Q)
	res.end = time.Now()
	res.bytes = q.c.body.Len()
	if res.err == nil {
		res.err = q.v.hits(qu, hits)
	}
	return res
}

// --- voice-stream: credit-based PCM stream into the message player ---

type streamer struct {
	ws  *workstation.Session
	be  workstation.Backend
	v   *verifier
	ids []object.ID // play order, cycled
	at  int
	rn  *runner
}

func (s *streamer) next(rec *recorder) opResult {
	id := s.ids[s.at%len(s.ids)]
	s.at++
	var res opResult
	var last time.Time
	res.start = time.Now()
	// advance fires after each chunk has been fed to the player.
	pb, err := s.ws.PlayVoiceStreamCtx(context.Background(), id, func(time.Duration) {
		now := time.Now()
		if last.IsZero() {
			res.first = now
		} else if s.rn.tracing() {
			rec.chunkGaps = append(rec.chunkGaps, now.Sub(last))
		}
		last = now
	})
	res.end = time.Now()
	if err != nil {
		res.err = fmt.Errorf("voice %d: %w", id, err)
		return res
	}
	rec.chunks += int64(pb.Chunks)
	res.bytes = int(pb.TotalBytes)
	if res.err = s.v.playback(id, pb); res.err != nil {
		return res
	}
	res.deep = func() error {
		got, err := rereadPCM(context.Background(), s.be, id)
		if err != nil {
			return fmt.Errorf("voice %d: re-read: %w", id, err)
		}
		return s.v.pcmStream(id, got)
	}
	return res
}

// --- publish-browse: the open-loop writer ---

// publisher calls Server.Publish on the owning shard at publishRate,
// open loop: write k is sent at t0 + k/rate on its own goroutine, whatever
// happened to write k-1, and its latency runs from that due time. Writes
// to one shard still queue on the server's own write lock — that wait is
// the latency being measured, not the generator's.
type publisher struct {
	st    *stack
	rn    *runner
	acked atomic.Int64
	// Per-write samples, each slot written by that write's goroutine and
	// read after wg.Wait: latency from due time, how late the send itself
	// was, and the phase it was sent in.
	lat, late []time.Duration
	phase     []int32
	errs      []error // per write, plus one slot for the dispatcher
	sent      int     // writes dispatched; the rest of the stream is unpublished
	wg        sync.WaitGroup
}

func (p *publisher) start() {
	c := p.st.corpus
	n := len(c.Pubs)
	p.lat, p.late = make([]time.Duration, n), make([]time.Duration, n)
	p.phase, p.errs = make([]int32, n), make([]error, n+1)
	for k := range p.phase {
		p.phase[k] = phaseDone // never sent
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t0 := time.Now()
		for k := range c.Pubs {
			due := t0.Add(time.Duration(k) * time.Second / publishRate)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if p.rn.phase.Load() == phaseDone {
				return
			}
			p.sent = k + 1
			p.wg.Add(1)
			go func(k int) {
				defer p.wg.Done()
				ph := p.rn.phase.Load()
				sent := time.Now()
				if _, err := p.st.servers[c.PubShard[k]].Publish(c.Pubs[k]); err != nil {
					p.errs[k] = fmt.Errorf("publish %d: %w", c.Pubs[k].ID, err)
					return
				}
				p.lat[k], p.late[k], p.phase[k] = time.Since(due), sent.Sub(due), ph
				p.acked.Add(1)
			}(k)
		}
		p.errs[n] = fmt.Errorf("publish stream ran dry after %d writes", n)
	}()
}

// window returns the samples of the writes sent in phase ph.
func (p *publisher) window(ph int32) (lat, late []time.Duration) {
	for k := range p.phase {
		if p.phase[k] == ph {
			lat = append(lat, p.lat[k])
			late = append(late, p.late[k])
		}
	}
	return lat, late
}
