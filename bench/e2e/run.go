package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"minos/internal/object"
	"minos/internal/workstation"
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     uint64
	// Seconds is the run's measuring time. An end-to-end run spends all
	// of it in one window; a traced run splits it (see tracedSplit).
	Seconds float64
	Trace   bool
	// SetupReps is the least number of times an end-to-end run sets the
	// stack up (setup_s is the median); quick set-ups are repeated further,
	// up to maxSetupReps, while they have taken less than SetupBudget in
	// all. Traced runs set up once.
	SetupReps   int
	SetupBudget time.Duration
	// MinSamples is how many primary ops a window must hold for its p99
	// to be reported; fewer fails the run.
	MinSamples int
	// SpanFile, on traced runs, receives the window's spans as JSON lines.
	SpanFile string
}

const (
	clients = 2 // closed-loop clients (= nproc on the reference box)

	// A traced run's seconds: an untraced one-client window (the base of
	// trace.overhead_ratio), the traced window, then the ladder.
	tracedBaseShare   = 0.25
	tracedWindowShare = 0.40

	// maxWriteLateMS bounds how late (p99) the open-loop writer may send.
	// With both cores busy a timer wake-up can wait out a 10 ms scheduler
	// quantum, so single-digit lateness is the floor here; a generator
	// that cannot hold its schedule at all shows up far above this.
	maxWriteLateMS = 25

	maxSetupReps = 9
)

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better,omitempty"`
	Clock   string  `json:"clock,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// guard is one workload-shape assertion.
type guard struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// workloadResult is everything one run reports.
type workloadResult struct {
	Name      string                 `json:"name"`
	Op        string                 `json:"op"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Clients   int                    `json:"clients"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Guards    []guard                `json:"guards"`
	Failures  []string               `json:"failures,omitempty"`
}

// correct reports whether every answer verified and every guard held.
func (r *workloadResult) correct() bool {
	if r.Failed > 0 || r.Attempted == 0 {
		return false
	}
	for _, g := range r.Guards {
		if !g.OK {
			return false
		}
	}
	return true
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// client is one load-generating goroutine's state.
type client struct {
	next func(*recorder) opResult
	recs recorders
	http *httpClient          // nil for voice clients
	ws   *workstation.Session // the session the load runs on
	done chan struct{}
}

// live is a set-up stack with its clients connected, ready for the first
// op.
type live struct {
	st      *stack
	v       *verifier
	clients []*client
}

func (l *live) close() {
	for _, c := range l.clients {
		if c.http != nil {
			c.http.close()
		}
	}
	l.st.Close()
}

func (l *live) sessions() []*workstation.Session {
	var out []*workstation.Session
	for _, c := range l.clients {
		out = append(out, c.ws)
	}
	return out
}

// setUp builds the stack and connects n clients: everything between
// "the inputs exist" and "the first op can be sent".
func setUp(cfg runConfig, c *corpus, tr *tracer, rn *runner, n int) (*live, error) {
	st, err := buildStack(c, tr)
	if err != nil {
		return nil, err
	}
	l := &live{st: st, v: &verifier{pcm: c.PCM}}
	r := rng{s: cfg.Seed}
	for k := 0; k < n; k++ {
		cl, err := connect(cfg.Workload, l, rn, k, r.sub(uint64(0xC11E+k)))
		if err != nil {
			l.close()
			return nil, fmt.Errorf("client %d: %w", k, err)
		}
		l.clients = append(l.clients, cl)
	}
	return l, nil
}

// connect opens client k's session and builds its op generator.
func connect(workload string, l *live, rn *runner, k int, r *rng) (*client, error) {
	st, c := l.st, l.st.corpus
	cl := &client{done: make(chan struct{})}
	if workload == "voice-stream" {
		// The cmd/minos -cluster path: the gateway has no audio leg.
		cc, err := st.dialCluster()
		if err != nil {
			return nil, err
		}
		be := st.backend(cc)
		cl.ws = newSession(be)
		ids := append([]object.ID(nil), c.Spoken...)
		for i := len(ids) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			ids[i], ids[j] = ids[j], ids[i]
		}
		cl.next = (&streamer{ws: cl.ws, be: be, v: l.v, ids: ids, rn: rn}).next
		return cl, nil
	}
	hc, err := newHTTPClient(st.url)
	if err != nil {
		return nil, err
	}
	cl.http = hc
	if cl.ws, err = st.hub.Workstation(hc.sid); err != nil {
		return nil, err
	}
	switch workload {
	case "browse-warm", "publish-browse":
		// One of the 8 group terms each (distinct), so the working set is
		// clients x 64 miniatures and fits every cache.
		term := fmt.Sprintf("grp%d", (r.intn(groups)+k)%groups)
		cl.next = (&browser{c: hc, v: l.v, q: c.groupQuery(term), members: c.Members[term]}).next
	case "browse-cold":
		term := fmt.Sprintf("half%d", k%2)
		cl.next = (&browser{c: hc, v: l.v, q: c.groupQuery(term), members: c.Members[term], cold: true}).next
	case "open-view":
		cl.next = (&opener{c: hc, v: l.v, ids: c.Visual, r: r}).next
	case "query-planned":
		cl.next = (&querier{c: hc, v: l.v, battery: c.Battery, at: r.intn(len(c.Battery))}).next
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return cl, nil
}

// plan lays a run's seconds out: a warm-up, then the measurement windows.
// The last window is the one reported; a traced run's first window is its
// untraced base.
type plan struct {
	warmup  time.Duration
	windows []time.Duration
}

func planFor(cfg runConfig) plan {
	p := plan{warmup: secs(min(max(cfg.Seconds/10, 0.05), 2)), windows: []time.Duration{secs(cfg.Seconds)}}
	if cfg.Trace {
		p.windows = []time.Duration{secs(cfg.Seconds * tracedBaseShare), secs(cfg.Seconds * tracedWindowShare)}
	}
	return p
}

// reportedAt is when the reported window starts, and total when it ends,
// both counted from the start of the warm-up.
func (p plan) reportedAt() (at, total time.Duration) {
	total = p.warmup
	for _, w := range p.windows {
		at = total
		total += w
	}
	return at, total
}

// measurement is what the reported window saw.
type measurement struct {
	start, delta counters
	window       time.Duration
	// opsPerS and cpuMSPerOp are medians over the window's slices: a
	// burst of interference from outside the process then costs one slice,
	// not a share of the mean.
	opsPerS, cpuMSPerOp float64
	spans               []span
}

const (
	// windowSlices is how many equal slices the reported window is read in.
	windowSlices = 10
	// warmOps is how many ops each client must have made before the first
	// window opens, however short the warm-up: more than one full
	// browse-warm walk (127 steps), so the caches the workload's "why"
	// counts on are filled.
	warmOps = 160
)

// runWorkload performs one run and reports it.
func runWorkload(cfg runConfig) (*workloadResult, error) {
	spec, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	p := planFor(cfg)
	// publish-browse's seal lands a third of the way into the reported
	// window.
	at, total := p.reportedAt()
	shape, err := shapeFor(cfg.Workload, at+(total-at)/3, total)
	if err != nil {
		return nil, err
	}
	c, err := generate(cfg.Seed, shape)
	if err != nil {
		return nil, err
	}

	rn := &runner{}
	nClients := clients
	if cfg.Trace {
		rn.tr = newTracer()
		nClients = 1 // so that containment in time gives parentage
	}
	if cfg.Workload == "publish-browse" {
		nClients = 1 // the second thread is the writer
	}
	l, setups, err := setUpRepeatedly(cfg, c, rn, nClients)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer l.close()
	l.st.expect()
	l.v.miniHash = l.st.miniHash

	var pub *publisher
	if cfg.Workload == "publish-browse" {
		pub = &publisher{st: l.st, rn: rn}
	}
	m := l.measure(rn, p, pub)

	res := &workloadResult{
		Name: spec.Name, Op: spec.Op, Seed: cfg.Seed, Seconds: cfg.Seconds, Clients: nClients,
		EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{},
	}
	reported := len(p.windows) // the phase number of the reported window
	rec := l.collect(reported)
	var writeLat []time.Duration
	lateP99 := 0.0
	if pub != nil {
		if err := l.checkPublishes(pub, &m); err != nil {
			rec.fail(err)
		}
		var late []time.Duration
		writeLat, late = pub.window(int32(reported))
		lateP99 = quantileMS(late, 0.99)
	}
	res.Attempted, res.Failed, res.Failures = rec.attempted, rec.failed, rec.failures
	res.Guards = shapeGuards(cfg.Workload, m.delta, len(writeLat), lateP99)
	n := len(rec.lat)
	if n == 0 {
		return res, errors.New("no primary op completed in the window")
	}
	ops, wsec := float64(n), m.window.Seconds()

	if !cfg.Trace {
		if n < cfg.MinSamples {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("%d primary ops in the window; p99 needs %d", n, cfg.MinSamples))
		}
		e2e := func(name string, v float64, samples int) {
			res.EndToEnd[name] = value(endToEnd, name, v, samples)
		}
		e2e("setup_s", median(setups), len(setups))
		e2e("ops_per_s", m.opsPerS, n)
		e2e("op_p50_ms", quantileMS(rec.lat, 0.50), n)
		e2e("op_p99_ms", quantileMS(rec.lat, 0.99), n)
		e2e("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), int(res.Attempted))
		e2e("allocs_per_op", m.delta.f(cMallocs)/ops, n)
		e2e("alloc_kb_per_op", m.delta.f(cAllocBytes)/1024/ops, n)
		e2e("cpu_ms_per_op", m.cpuMSPerOp, n)
		e2e("peak_rss_mb", peakRSSMiB(), 1)
		e2e("first_byte_p50_ms", quantileMS(rec.first, 0.50), n)
		e2e("stream_mb_per_s", float64(rec.bytes)/1e6/ops*m.opsPerS, n)
		if w := len(writeLat); pub != nil {
			e2e("writes_per_s", float64(w)/wsec, w)
			e2e("write_p50_ms", quantileMS(writeLat, 0.50), w)
			e2e("write_p95_ms", quantileMS(writeLat, 0.95), w)
		}
		return res, nil
	}

	lay := &layerReport{res: res}
	lay.fromCounters(m.delta, ops)
	lay.fromSpans(summarize(m.spans))
	if w := len(writeLat); pub != nil {
		lay.set("loadgen.writes_per_s", float64(w)/wsec, w)
		lay.set("loadgen.write_p50_ms", quantileMS(writeLat, 0.50), w)
		lay.set("loadgen.write_p95_ms", quantileMS(writeLat, 0.95), w)
		lay.set("loadgen.write_late_p99_ms", lateP99, w)
	}
	if len(rec.chunkGaps) > 0 {
		lay.set("wire.stream_chunks_per_op", float64(rec.chunks)/ops, n)
		lay.set("wire.stream_chunk_gap_us", quantileMS(rec.chunkGaps, 0.50)*1e3, len(rec.chunkGaps))
	}
	// Overhead: the traced window's median against the untraced one's, same
	// stack, same single client.
	if base := l.collect(1); len(base.lat) > 0 {
		lay.set("trace.overhead_ratio", quantileMS(rec.lat, 0.5)/quantileMS(base.lat, 0.5), len(base.lat))
	}
	if cfg.SpanFile != "" {
		if err := writeSpans(cfg.SpanFile, m.spans); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
	}
	ladderTime := secs(cfg.Seconds * (1 - tracedBaseShare - tracedWindowShare))
	if err := runLadder(context.Background(), l, rn.tr, lay, ladderTime, pub); err != nil {
		return res, fmt.Errorf("ladder: %w", err)
	}
	lay.fillZeros()
	return res, nil
}

// setUpRepeatedly sets the stack up cfg.SetupReps times or more (see
// runConfig), returning every set-up's seconds and the last one, live.
func setUpRepeatedly(cfg runConfig, c *corpus, rn *runner, nClients int) (l *live, setups []float64, err error) {
	reps, budget := max(cfg.SetupReps, 1), cfg.SetupBudget
	if cfg.Trace {
		reps, budget = 1, 0
	}
	var spent time.Duration
	for i := 0; i < reps || (i < maxSetupReps && spent < budget); i++ {
		if l != nil {
			l.close()
			runtime.GC()
		}
		t0 := time.Now()
		if l, err = setUp(cfg, c, rn.tr, rn, nClients); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		spent += d
	}
	return l, setups, nil
}

// measure starts the clients and the writer, lets them warm up, and takes
// them through the plan's windows; it returns once every goroutine
// it started has ended. Only the last window's counters and spans are
// kept.
func (l *live) measure(rn *runner, p plan, pub *publisher) measurement {
	for _, cl := range l.clients {
		go func(cl *client) {
			defer close(cl.done)
			rn.loop(&cl.recs, cl.next)
		}(cl)
	}
	// Caches first (a count of ops, not a time: a slow box must still get
	// there), then the writer and the timed warm-up together, so the
	// writer's schedule and the plan share a clock.
	for rn.attempts.Load() < int64(warmOps*len(l.clients)) {
		time.Sleep(5 * time.Millisecond)
	}
	if pub != nil {
		pub.start()
	}
	time.Sleep(p.warmup)
	var m measurement
	for i, w := range p.windows {
		last := i == len(p.windows)-1
		if last && rn.tr != nil {
			rn.tr.on.Store(true)
		}
		runtime.GC()
		m.start = l.st.snapshot(l.sessions())
		t0 := time.Now()
		rn.phase.Store(int32(i + 1))
		if last {
			m.opsPerS, m.cpuMSPerOp = sliced(rn, w)
		} else {
			time.Sleep(w)
		}
		m.window = time.Since(t0)
		if last {
			rn.phase.Store(phaseDone)
		} else {
			rn.phase.Store(phaseIdle)
		}
		m.delta = l.st.snapshot(l.sessions()).sub(m.start)
	}
	for _, cl := range l.clients {
		<-cl.done
	}
	if pub != nil {
		pub.wg.Wait()
	}
	if rn.tr != nil {
		rn.tr.on.Store(false)
		m.spans = rn.tr.drain()
	}
	return m
}

// sliced sleeps through a window of length w in windowSlices slices and
// returns the median over slices of ops completed per second and of
// process CPU milliseconds per op.
func sliced(rn *runner, w time.Duration) (opsPerS, cpuMSPerOp float64) {
	var rates, costs []float64
	begin := time.Now()
	t0, ops0, cpu0 := begin, rn.completed.Load(), processCPU()
	for k := 1; k <= windowSlices; k++ {
		time.Sleep(time.Until(begin.Add(w * time.Duration(k) / windowSlices)))
		t1, ops1, cpu1 := time.Now(), rn.completed.Load(), processCPU()
		if n := float64(ops1 - ops0); n > 0 {
			rates = append(rates, n/t1.Sub(t0).Seconds())
			costs = append(costs, float64(cpu1-cpu0)/1e6/n)
		}
		t0, ops0, cpu0 = t1, ops1, cpu1
	}
	return median(rates), median(costs)
}

// collect merges every client's recorder for window ph. Failures recorded
// in any other phase are carried along: they still fail the run.
func (l *live) collect(ph int) recorder {
	var rec recorder
	for _, cl := range l.clients {
		for i := range cl.recs {
			r := &cl.recs[i]
			if i == ph {
				rec.merge(r)
			} else {
				rec.merge(&recorder{attempted: r.failed, failed: r.failed, failures: r.failures})
			}
		}
	}
	return rec
}

// checkPublishes runs publish-browse's after-the-window checks: no write
// failed, and a query for the marker term through the stack returns
// exactly the acknowledged writes. It also credits the window with any
// merge it started that finished only afterwards.
func (l *live) checkPublishes(pub *publisher, m *measurement) error {
	for _, srv := range l.st.servers {
		srv.ContentIndex().WaitMerges()
	}
	after := l.st.snapshot(nil)
	for i := range m.delta.Merges {
		m.delta.Merges[i] = after.Merges[i] - m.start.Merges[i]
	}
	if err := errors.Join(pub.errs...); err != nil {
		return err
	}
	mark := l.st.corpus.groupQuery("pubmark")
	mark.Hits = int(pub.acked.Load())
	hits, _, err := l.clients[0].http.query(http.MethodPost, mark.Q)
	if err == nil {
		err = l.v.hits(mark, hits)
	}
	if err != nil {
		return fmt.Errorf("acknowledged publishes: %w", err)
	}
	return nil
}

// shapeGuards are the properties that make each workload the workload its
// "why" says it is, asserted on every run. The writer-lateness guard needs
// the ten samples beyond a p99 that make it one, so it waits for a window
// of at least 1000 writes.
func shapeGuards(workload string, d counters, writes int, lateP99ms float64) []guard {
	var gs []guard
	check := func(name string, ok bool, format string, args ...any) {
		gs = append(gs, guard{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	png := d.ratio(cPNGHits, cPNGMisses)
	cache := d.ratio(cCacheHits, cCacheMisses)
	switch workload {
	case "browse-warm":
		check("gateway.png_hit_ratio>=0.98", png >= 0.98, "%.4f", png)
	case "browse-cold":
		check("gateway.png_hit_ratio<=0.6", png <= 0.6, "%.4f", png)
	case "open-view":
		check("server.cache_hit_ratio<0.9", cache < 0.9, "%.4f", cache)
	case "publish-browse":
		for i := range d.Seals {
			check(fmt.Sprintf("index.seals[shard%d]>=1", i), d.Seals[i] >= 1, "%d", d.Seals[i])
			check(fmt.Sprintf("index.merges[shard%d]>=1", i), d.Merges[i] >= 1, "%d", d.Merges[i])
		}
		if writes >= 1000 {
			check("loadgen.write_late_p99_ms<25", lateP99ms < maxWriteLateMS, "%.3f", lateP99ms)
		}
	}
	for _, z := range []struct {
		name string
		id   counterID
	}{{"cluster.failovers", cClusterFaults}, {"wire.reconnects", cReconnects}, {"gateway.shed", cGatewayShed}, {"server.shed", cServerShed}} {
		check(z.name+"==0", d.get(z.id) == 0, "%d", d.get(z.id))
	}
	return gs
}

// --- statistics ---

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantileMS is the q-quantile of d in milliseconds (nearest rank).
func quantileMS(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := sortedCopy(d)
	return float64(s[min(int(q*float64(len(s))), len(s)-1)]) / 1e6
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
