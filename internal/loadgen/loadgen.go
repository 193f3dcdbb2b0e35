// Package loadgen is the deterministic mass-session load harness: it
// drives thousands of concurrent simulated browse sessions against a real
// *server.Server on a virtual clock, so the §5 concern — "queueing delays
// that may be experienced when several users try to access data from the
// same device" — is measurable at population scale, repeatably.
//
// The harness is symmetric with the real serving path: sessions call the
// server's actual admission gate (AdmitAs) and actual read path
// (ReadPieceAs, DescriptorAs), so cache behaviour, shed decisions and
// device service times are the production code's, not a model of it. Only
// the *waiting* is simulated: device service runs through an event-driven
// station built on the same sched.FairQueue the real seek semaphore uses,
// and link transfer/think time elapse on the vclock. Everything runs on
// one goroutine inside Clock.Run, so a given (corpus, Config) pair yields
// a bit-identical Result every run.
package loadgen

import (
	"slices"
	"sort"
	"time"

	"minos/internal/cluster"
	"minos/internal/object"
	"minos/internal/server"
)

// linkModel is one simulated network hop.
type linkModel struct {
	latency   time.Duration
	bandwidth int64 // bytes per second
}

// ethernetLink is the workstation↔server hop: the wire layer's
// EthernetLink (10 Mbit/s, 2 ms propagation). webLink is the
// gateway↔browser hop: a T1-class 1.5 Mbit/s pipe with wide-area 5 ms
// propagation — deliberately slower than the backend, as the web hop was.
var (
	ethernetLink = linkModel{latency: 2 * time.Millisecond, bandwidth: 10_000_000 / 8}
	webLink      = linkModel{latency: 5 * time.Millisecond, bandwidth: 1_500_000 / 8}
)

// stepCPU is the modelled server CPU cost of serving one cache-hit item
// (query evaluation, miniature encode, piece memcpy — roughly what the wire
// handler measures for a 64 KiB piece).
const stepCPU = 50 * time.Microsecond

func (l linkModel) byteCost(n int) time.Duration {
	return time.Duration(int64(n) * int64(time.Second) / l.bandwidth)
}

// transfer is the link cost of one request/response exchange moving n
// payload bytes.
func (l linkModel) transfer(n int) time.Duration {
	return 2*l.latency + l.byteCost(n)
}

// Config parameterizes one harness run. Sessions are assigned the three
// stock scenarios round-robin, and every shard's device station has one
// head (the paper's single optical head).
type Config struct {
	// Sessions is the number of concurrent simulated sessions.
	Sessions int
	// StepsEach, when positive, ends each session after that many
	// completed steps (closed run; used by the smoke gate).
	StepsEach int
	// Duration, when positive, stops sessions from starting new steps at
	// this virtual time (open run; used for throughput and fairness,
	// where per-session completed steps are the signal).
	Duration time.Duration
	// Seed drives every random choice in the run.
	Seed uint64
	// MaxInFlight is the server admission bound (0 = unbounded).
	MaxInFlight int
	// HotSessions marks the first n sessions as hot: zero think time, a
	// session pounding the server as fast as responses return. Used to
	// show a hot session cannot starve the fleet.
	HotSessions int
	// FailShardAt, when positive, injects a primary failure at that
	// virtual time: shard FailShard's primary stops serving, and routed
	// work moves to its WORM read replica (or degrades if the shard has
	// none) — the E-SHARD failover experiment.
	FailShardAt time.Duration
	// FailShard selects the shard whose primary fails (see FailShardAt).
	FailShard int
}

// Result is the measured outcome of one run. Identical (corpus, Config)
// inputs produce identical Results.
type Result struct {
	Sessions    int
	Steps       int64 // completed steps across all sessions
	Offered     int64 // device-bound admission attempts
	Sheds       int64 // attempts refused by the admission gate
	Degraded    int64 // device steps abandoned after the retry budget
	ShedRate    float64
	P50, P95    time.Duration
	P99, MaxLat time.Duration
	// FairnessRatio is max/min completed steps per session within the
	// least-fair scenario class (hot sessions are their own class). A
	// starved session (0 steps) makes the ratio equal to the class
	// maximum.
	FairnessRatio      float64
	MinSteps, MaxSteps int64
	// DevWaits is the device-wait histogram (see WaitBounds), summed over
	// every station of the fleet.
	DevWaits    []int64
	VirtualTime time.Duration
	// Shards is the fleet width the run was driven against.
	Shards int
	// DeviceSteps counts completed device-path steps (piece and audio
	// reads that passed admission) — the aggregate read throughput signal
	// for the E-SHARD scaling claim. Think-time-bound browse steps do not
	// grow with fleet width; device-path completions do.
	DeviceSteps int64
	// FailoverSteps counts device-path steps served by a read replica
	// after its primary failed.
	FailoverSteps int64
}

// Run drives cfg.Sessions sessions against srv and reports the measured
// result. The server should be freshly built (cache state is part of the
// experiment); read-ahead must be disabled on it, as the harness is
// single-threaded and background sweeps would race the virtual clock.
//
// Run is the fleet-of-1 special case of RunFleet: the routing layer
// short-circuits for a single shard, so the event sequence (and hence the
// Result) is the one the pre-fleet harness produced.
func Run(srv *server.Server, cfg Config) (Result, error) {
	return RunFleet(SingleFleet(srv), cfg)
}

// harness is the run state of the E-LOAD/E-SHARD experiment: a kernel
// population of sessions over a fleet of nodes.
type harness struct {
	population
	nodes         []*node
	ring          *cluster.Ring
	cat           catalog
	cfg           Config
	sessions      []*session
	deviceSteps   int64
	failoverSteps int64
}

// node is one shard of the simulated fleet: a primary server with its
// device station, and optionally a WORM read replica with its own.
type node struct {
	shard    int
	primary  *server.Server
	replica  *server.Server // nil = unreplicated shard
	pst, rst *station
	failed   bool // primary down (fault injection)
}

// down reports whether the shard is entirely dark: primary failed with no
// replica to absorb reads.
func (n *node) down() bool { return n.failed && n.replica == nil }

// srv is the server currently serving this shard's reads.
func (n *node) srv() *server.Server {
	if n.failed && n.replica != nil {
		return n.replica
	}
	return n.primary
}

// st is the device station behind srv.
func (n *node) st() *station {
	if n.failed && n.rst != nil {
		return n.rst
	}
	return n.pst
}

// node routes an object id to its owning shard; the single-shard fast
// path keeps the fleet-of-1 run identical to the pre-fleet harness.
func (h *harness) node(id object.ID) *node {
	if len(h.nodes) == 1 {
		return h.nodes[0]
	}
	return h.nodes[h.ring.Owner(id)]
}

// queryAll evaluates a content query across the fleet, merging the
// per-shard id sets ascending — exactly what the routed wire client's
// scatter/gather Query returns. A dark shard's objects simply drop out of
// the result, as they would for a real workstation.
func (h *harness) queryAll(term string) []object.ID {
	if len(h.nodes) == 1 {
		return h.nodes[0].srv().Query(term)
	}
	var all []object.ID
	for _, n := range h.nodes {
		if n.down() {
			continue
		}
		all = append(all, n.srv().Query(term)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

func (h *harness) result() Result {
	r := Result{
		Sessions:      h.cfg.Sessions,
		Steps:         h.steps,
		Offered:       h.offered,
		Sheds:         h.sheds,
		Degraded:      h.degraded,
		ShedRate:      h.shedRate(),
		DevWaits:      make([]int64, len(WaitBounds)+2),
		VirtualTime:   h.clock.Now(),
		Shards:        len(h.nodes),
		DeviceSteps:   h.deviceSteps,
		FailoverSteps: h.failoverSteps,
	}
	lat := h.latencySummary()
	r.P50, r.P95, r.P99, r.MaxLat = lat.p50, lat.p95, lat.p99, lat.max
	for _, n := range h.nodes {
		for _, st := range []*station{n.pst, n.rst} {
			if st == nil {
				continue
			}
			for i, c := range st.waits {
				r.DevWaits[i] += c
			}
		}
	}
	// Fairness: compare sessions only within their class (same scenario,
	// same hotness) — classes legitimately differ in pacing. Report the
	// least fair class.
	perClass := map[int][]int64{}
	for _, s := range h.sessions {
		key := s.scIdx * 2
		if s.hot {
			key++
		}
		perClass[key] = append(perClass[key], s.steps)
	}
	r.FairnessRatio = 1
	for _, steps := range perClass {
		if len(steps) < 2 {
			continue
		}
		mn, mx := slices.Min(steps), slices.Max(steps)
		// A starved session (mn == 0): the ratio degrades to the max.
		if ratio := float64(mx) / float64(max(mn, 1)); ratio > r.FairnessRatio {
			r.FairnessRatio = ratio
			r.MinSteps, r.MaxSteps = mn, mx
		}
	}
	return r
}

// session is one simulated browsing user: a kernel actor whose steps are
// the scenario mix run against the real servers of the fleet.
type session struct {
	actor
	h      *harness
	tenant uint64
	scIdx  int
	sc     Scenario
	hot    bool

	results   []object.ID
	cursor    int
	failKnown uint64 // bitmask of shards whose primary failure this session has discovered
}

// route resolves id's owning node plus the one-time failover discovery
// cost: the first routed call a session sends after a primary fails pays
// one dead round trip before redirecting to the replica. Thereafter the
// workstation's connection state (the wire client's NeedsReconnect
// classification) sends reads straight to the replica at no extra cost.
func (s *session) route(id object.ID) (*node, time.Duration) {
	n := s.h.node(id)
	if !n.failed {
		return n, 0
	}
	bit := uint64(1) << uint(n.shard%64)
	if s.failKnown&bit != 0 {
		return n, 0
	}
	s.failKnown |= bit
	return n, ethernetLink.transfer(0)
}

func (s *session) beginStep() {
	switch s.sc.pick(s.rng, len(s.results) > 0, len(s.h.cat.audio) > 0) {
	case kindQuery:
		s.current = s.doQuery
	case kindBrowse:
		s.current = s.doBrowse
	case kindPiece:
		s.current = s.doPiece
	default:
		s.current = s.doAudio
	}
	s.current()
}

// doQuery runs a content query against the real index and pages the
// session's browse cursor onto the result set.
func (s *session) doQuery() {
	term := s.h.cat.terms[s.rng.below(uint64(len(s.h.cat.terms)))]
	ids := s.h.queryAll(term)
	if len(ids) > 0 {
		s.results = ids
		s.cursor = int(s.rng.below(uint64(len(ids))))
	}
	s.finishAfter(ethernetLink.transfer(9+len(term)+8*len(ids))+stepCPU, nil)
}

// doBrowse fetches a batch of miniatures from the encoded-frame cache —
// the sequential-browsing hot path, all in-memory.
func (s *session) doBrowse() {
	n := s.sc.BrowseBatch
	if n > len(s.results) {
		n = len(s.results)
	}
	bytes := 0
	var extra time.Duration
	for i := 0; i < n; i++ {
		id := s.results[(s.cursor+i)%len(s.results)]
		nd, pen := s.route(id)
		extra += pen
		if nd.down() {
			continue // dark shard: the miniature is simply missing from the strip
		}
		if payload, _, ok := nd.srv().MiniatureEncoded(id); ok {
			bytes += len(payload) + 6
		}
	}
	s.cursor = (s.cursor + n) % len(s.results)
	s.finishAfter(ethernetLink.transfer(bytes)+time.Duration(n)*stepCPU+extra, nil)
}

// routeDevice resolves the shard a device-bound step reads from. A dark
// shard degrades the step on the spot (ok is false): the workstation falls
// back to what it has cached.
func (s *session) routeDevice(id object.ID) (nd *node, pen time.Duration, ok bool) {
	nd, pen = s.route(id)
	if nd.down() {
		s.h.degraded++
		s.finishAfter(ethernetLink.transfer(0)+pen, nil)
		return nd, pen, false
	}
	return nd, pen, true
}

// deviceRead is the device-bound tail of a step: pass the shard server's
// real admission gate, run read against it (payload bytes moved, device
// time charged), then queue the device time at the shard's station under
// this session's tenant — pure cache hits skip the device entirely,
// exactly like the real read path. The admission slot is held through
// device service + transfer; completion latency covers the same span.
func (s *session) deviceRead(nd *node, pen time.Duration, read func() (n int, dev time.Duration, err error)) {
	try := func() (func(), bool) {
		release, err := nd.srv().AdmitAs(s.tenant)
		return release, err == nil
	}
	s.admit(try, ethernetLink.transfer(0), func(release func()) {
		n, devTime, err := read()
		transfer := ethernetLink.transfer(n) + stepCPU + pen
		if err != nil {
			transfer = ethernetLink.transfer(0) + pen
		}
		s.h.deviceSteps++
		if nd.failed && nd.replica != nil {
			s.h.failoverSteps++
		}
		if devTime > 0 {
			nd.st().submit(s.tenant, 0, func() time.Duration { return devTime }, func() {
				s.finishAfter(transfer, release)
			})
			return
		}
		s.finishAfter(transfer, release)
	})
}

// doPiece reads a random extent of a visual object through the owning
// shard server's real block cache and admission gate. Offsets are
// archiver-absolute per shard, so the routing key is the object id the
// extent was scanned from.
func (s *session) doPiece() {
	t := s.h.cat.visual[s.rng.below(uint64(len(s.h.cat.visual)))]
	nd, pen, ok := s.routeDevice(t.id)
	if !ok {
		return
	}
	length := s.sc.PieceLen
	if length > t.ext.length {
		length = t.ext.length
	}
	off := t.ext.start + s.rng.below(t.ext.length-length+1)
	s.deviceRead(nd, pen, func() (int, time.Duration, error) {
		data, devT, err := nd.srv().ReadPieceAs(s.tenant, off, length)
		return len(data), devT, err
	})
}

// doAudio fetches an audio object's descriptor (a device read, first
// time) and its voice preview bytes — the "voice segments ... played as
// the miniature passes through the screen" (§5) — from its owning shard.
func (s *session) doAudio() {
	id := s.h.cat.audio[s.rng.below(uint64(len(s.h.cat.audio)))]
	nd, pen, ok := s.routeDevice(id)
	if !ok {
		return
	}
	s.deviceRead(nd, pen, func() (int, time.Duration, error) {
		_, devT, err := nd.srv().DescriptorAs(s.tenant, id)
		bytes := 0
		if vp := nd.srv().VoicePreview(id); vp != nil {
			bytes = 2 * len(vp.Samples) // 16-bit mono PCM
		}
		return bytes, devT, err
	})
}
