// E-GATE: the gateway-tier load experiment. Where Run/RunFleet model a
// workstation population hitting object servers directly, RunGate drives
// the same §6 office mix through a real gateway.Hub — every step executes
// the production path (workstation session → mux wire client →
// server read path → PNG encode → push fan-out), and only the waiting is
// simulated: backend link time accrues on wire.LocalTransport's virtual
// accounting, server device time arrives as reported durations, and the
// browser-side push rides a (slower) web link model. Everything runs on
// one goroutine inside Clock.Run, so a given (corpus, GateConfig) pair
// yields a bit-identical GateResult every run.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"minos/internal/gateway"
	"minos/internal/object"
	"minos/internal/server"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// GateConfig parameterizes one gateway harness run. Every session runs the
// §6 office mix, and pushes ride webLink to the browser.
type GateConfig struct {
	// Sessions is the number of concurrent web browse sessions.
	Sessions int
	// StepsEach, when positive, ends each session after that many
	// completed steps (closed run).
	StepsEach int
	// Duration, when positive, stops sessions from starting new steps at
	// this virtual time (open run).
	Duration time.Duration
	// Seed drives every random choice in the run.
	Seed uint64
	// PoolSize is the number of shared mux backend connections the
	// gateway multiplexes sessions over (default max(1, Sessions/8)).
	PoolSize int
	// StepSlots bounds backend-bound requests in flight across the
	// gateway, fair-shared per session (0 = unbounded).
	StepSlots int
}

// GateResult is the measured outcome of one RunGate. Identical (corpus,
// GateConfig) inputs produce identical GateResults.
type GateResult struct {
	Sessions int
	Steps    int64 // completed steps across all sessions
	Queries  int64
	Browses  int64
	Opens    int64
	Offered  int64 // gateway admission attempts
	Sheds    int64 // attempts refused by the fair-share gate
	Degraded int64 // steps abandoned past the retry budget
	ShedRate float64
	// StepsPerSec is completed steps per virtual second.
	StepsPerSec float64
	// Push latency percentiles: step begin → event delivered over the web
	// link (includes backend link time, server device time, PNG encode
	// path, and the push transfer).
	P50, P95    time.Duration
	P99, MaxLat time.Duration
	// PNGHitRate is the encoded-PNG cache hit fraction.
	PNGHitRate  float64
	VirtualTime time.Duration
	// PoolSize is the backend connection pool width driven.
	PoolSize int
	// Hub snapshots the gateway's own counters at run end.
	Hub gateway.Stats
}

// gateHarness is the run state of the E-GATE experiment: a kernel
// population of web sessions behind one gateway hub.
type gateHarness struct {
	population
	cfg   GateConfig
	sc    Scenario // the §6 office mix, every session's
	hub   *gateway.Hub
	lts   []*wire.LocalTransport
	terms []string

	queries int64
	browses int64
	opens   int64
}

// gateSession is one simulated web user behind the gateway: a kernel actor
// whose every step first passes the gateway's fair-share gate.
type gateSession struct {
	actor
	h   *gateHarness
	sid uint64

	hits    int       // result count of the last successful query
	lastObj object.ID // last object a step landed on (open target)
	release func()    // held admission slot for the in-flight step
}

// RunGate opens cfg.Sessions gateway sessions over a cfg.PoolSize backend
// pool against srv and drives the scenario mix on the virtual clock. The
// server should be freshly built and have read-ahead disabled (the
// harness is single-threaded).
func RunGate(srv *server.Server, cfg GateConfig) (GateResult, error) {
	pop, err := newPopulation(cfg.Sessions, cfg.StepsEach, cfg.Duration)
	if err != nil {
		return GateResult{}, err
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = max(1, cfg.Sessions/8)
	}

	h := &gateHarness{population: pop, cfg: cfg, sc: Office()}
	backends := make([]workstation.Backend, cfg.PoolSize)
	h.lts = make([]*wire.LocalTransport, cfg.PoolSize)
	for i := range backends {
		lt := wire.EthernetLink(&wire.Handler{Srv: srv})
		h.lts[i] = lt
		backends[i] = wire.NewClient(lt)
	}
	hub, err := gateway.New(gateway.Config{
		Backends:  backends,
		StepSlots: cfg.StepSlots,
	})
	if err != nil {
		return GateResult{}, err
	}
	h.hub = hub
	defer func() {
		hub.Close()
		for _, be := range backends {
			be.Close()
		}
	}()

	// Keep only query terms that hit, as the fleet harness does, so query
	// steps land the cursor on browsable result sets.
	for _, t := range queryTerms {
		if len(srv.Query(t)) > 0 {
			h.terms = append(h.terms, t)
		}
	}
	if len(h.terms) == 0 {
		h.terms = queryTerms
	}

	for i := 0; i < cfg.Sessions; i++ {
		sid, err := hub.Open()
		if err != nil {
			return GateResult{}, fmt.Errorf("loadgen: open gateway session %d: %w", i, err)
		}
		s := &gateSession{h: h, sid: sid}
		s.actor = actor{
			pop: &h.population, rng: sessionRNG(cfg.Seed, i), begin: s.beginStep,
			think: h.sc.Think, jitter: h.sc.ThinkJitter,
		}
		s.launch()
	}
	h.clock.Run(0)
	return h.result(), nil
}

func (s *gateSession) beginStep() {
	var step func()
	switch s.h.sc.pick(s.rng, s.hits > 0, false) {
	case kindQuery:
		step = s.doQuery
	case kindPiece:
		step = s.doOpen
	default:
		// Browse steps advance the cursor; an audio object's step plays its
		// preview as the miniature passes (§5), which the gateway delivers
		// in the same push, so audio folds into browsing.
		step = s.doStep
	}
	s.current = func() { s.gated(step) }
	s.current()
}

// gated passes the gateway's fair-share gate, holding the slot across the
// step's whole virtual span — exactly what the HTTP transport does with
// wall-clock spans. Past the shed budget the step degrades (the browser
// keeps its last frame).
func (s *gateSession) gated(step func()) {
	s.admit(func() (func(), bool) { return s.h.hub.Admission().Admit(s.sid) },
		webLink.transfer(0),
		func(release func()) {
			s.release = release
			step()
		})
}

// backendCost measures the virtual backend cost of fn: the link time the
// session's pool transport accrued plus the server device time the
// workstation session recorded (both fully virtual — fn itself runs
// synchronously and sleeps for neither).
func (s *gateSession) backendCost(fn func() error) (time.Duration, error) {
	lt := s.h.lts[s.h.hub.BackendIndex(s.sid)]
	ws, err := s.h.hub.Workstation(s.sid)
	if err != nil {
		return 0, err
	}
	linkBefore := lt.Stats().LinkTime
	fetchBefore := ws.FetchTime
	if err := fn(); err != nil {
		return 0, err
	}
	return (lt.Stats().LinkTime - linkBefore) + (ws.FetchTime - fetchBefore), nil
}

// complete finishes the step after the push crosses the web link, handing
// back the admission slot as it lands.
func (s *gateSession) complete(ev *gateway.Event, cost time.Duration) {
	if ev != nil {
		cost += webLink.transfer(eventBytes(*ev))
	}
	rel := s.release
	s.release = nil
	s.finishAfter(cost, rel)
}

// eventBytes is the push payload size: the JSON event plus its PNG, the
// bytes a browser takes in for the event whether the image rides inline or
// by href fetch.
func eventBytes(ev gateway.Event) int {
	j, err := json.Marshal(ev)
	if err != nil {
		return len(ev.PNG)
	}
	return len(j) + len(ev.PNG)
}

func (s *gateSession) doQuery() {
	term := s.h.terms[s.rng.below(uint64(len(s.h.terms)))]
	var hits int
	cost, err := s.backendCost(func() error {
		n, err := s.h.hub.Query(context.Background(), s.sid, term)
		hits = n
		return err
	})
	if err != nil {
		s.h.degraded++
		s.complete(nil, webLink.transfer(0))
		return
	}
	s.hits = hits
	s.h.queries++
	// The hit list returns to the browser as a small JSON id array.
	s.complete(nil, cost+webLink.transfer(16+8*hits))
}

func (s *gateSession) doStep() {
	var ev gateway.Event
	cost, err := s.backendCost(func() error {
		e, err := s.h.hub.Step(context.Background(), s.sid, 1)
		ev = e
		return err
	})
	if err != nil {
		s.h.degraded++
		s.complete(nil, webLink.transfer(0))
		return
	}
	if ev.Done {
		// Cursor ran off the result set: next step re-queries.
		s.hits = 0
		s.complete(&ev, cost)
		return
	}
	s.lastObj = ev.Obj
	s.h.browses++
	s.complete(&ev, cost)
}

func (s *gateSession) doOpen() {
	if s.lastObj == 0 {
		s.doStep()
		return
	}
	id := s.lastObj
	var ev gateway.Event
	cost, err := s.backendCost(func() error {
		e, err := s.h.hub.OpenObject(context.Background(), s.sid, id)
		ev = e
		return err
	})
	if err != nil {
		s.h.degraded++
		s.complete(nil, webLink.transfer(0))
		return
	}
	s.h.opens++
	s.complete(&ev, cost)
}

func (h *gateHarness) result() GateResult {
	st := h.hub.Stats()
	r := GateResult{
		Sessions:    h.cfg.Sessions,
		Steps:       h.steps,
		Queries:     h.queries,
		Browses:     h.browses,
		Opens:       h.opens,
		Offered:     h.offered,
		Sheds:       h.sheds,
		Degraded:    h.degraded,
		ShedRate:    h.shedRate(),
		VirtualTime: h.clock.Now(),
		PoolSize:    h.cfg.PoolSize,
		Hub:         st,
	}
	if r.VirtualTime > 0 {
		r.StepsPerSec = float64(h.steps) / r.VirtualTime.Seconds()
	}
	if st.PNGHits+st.PNGMisses > 0 {
		r.PNGHitRate = float64(st.PNGHits) / float64(st.PNGHits+st.PNGMisses)
	}
	lat := h.latencySummary()
	r.P50, r.P95, r.P99, r.MaxLat = lat.p50, lat.p95, lat.p99, lat.max
	return r
}
