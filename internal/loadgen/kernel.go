package loadgen

import (
	"fmt"
	"slices"
	"time"

	"minos/internal/disk"
	"minos/internal/sched"
	"minos/internal/vclock"
)

// The discrete-event kernel under every modelled experiment: one random
// generator, one percentile rule, one device station and one closed-loop
// actor. E-QUEUE, E-CONC, E-LOAD/E-SHARD and E-GATE are configurations of
// these four; none carries a private copy. Everything runs on the single
// goroutine inside Clock.Run — event order is the only ordering, which is
// what makes every run bit-reproducible.

// rng is a xorshift64 generator. The state must be non-zero.
type rng uint64

// sessionRNG seeds session i's private generator: distinct, non-zero
// streams for every (seed, i).
func sessionRNG(seed uint64, i int) *rng {
	r := rng((seed+1)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 1)
	return &r
}

// sharedRNG seeds the one generator a queueing run's clients share.
func sharedRNG(seed uint64) *rng {
	r := rng(seed*2654435761 + 12345)
	return &r
}

// below returns the next draw reduced to [0, n); n must be positive.
func (r *rng) below(n uint64) uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x % n
}

// percentile returns the p-quantile (0 < p <= 1) of an ascending-sorted
// sample set by the nearest-rank rule: the sample at rank round(p*n),
// clamped to the set. Zero for an empty set.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedDurations returns an ascending copy of d.
func sortedDurations(d []time.Duration) []time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// Discipline selects the order a station serves its queue in.
type Discipline uint8

const (
	// FCFS serves requests in arrival order, round-robin across tenants
	// (sched.FairQueue, the real seek semaphore's policy); with a single
	// tenant that is plain arrival order.
	FCFS Discipline = iota
	// SSTF serves the queued request with the shortest seek from the
	// current head position.
	SSTF
	// SCAN sweeps the head in one direction, serving requests in block
	// order, then reverses (the elevator algorithm).
	SCAN
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "fcfs"
	case SSTF:
		return "sstf"
	case SCAN:
		return "scan"
	}
	return fmt.Sprintf("Discipline(%d)", uint8(d))
}

// WaitBounds are the device-wait histogram bucket upper bounds. Bucket 0
// counts dispatches that never waited; bucket i counts waits at most
// WaitBounds[i-1]; the final bucket counts everything beyond.
var WaitBounds = []time.Duration{
	time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond,
	64 * time.Millisecond, 256 * time.Millisecond, time.Second, 4 * time.Second,
}

// station is the event-driven device model: the seek queue of §5. It adds
// only what a single-threaded run cannot observe directly — the waiting.
// Service times come from the caller (the real server's measured device
// time, or the disk model itself) and are evaluated at dispatch, so a
// seek-dependent read sees the head position its predecessors left.
type station struct {
	clock *vclock.Clock
	heads int
	sched Discipline
	dev   disk.Device // head position for the SSTF/SCAN picker; unused under FCFS

	inuse   int
	fair    sched.FairQueue[*job] // FCFS queue
	seek    []*job                // SSTF/SCAN queue
	sweepUp bool

	// Outputs.
	waits []int64       // queueing-delay histogram (see WaitBounds)
	busy  time.Duration // summed service time
}

// job is one queued device request.
type job struct {
	off  uint64               // byte address the seek-aware disciplines order by
	svc  func() time.Duration // service time, evaluated at dispatch
	enq  time.Duration
	done func()
}

func newStation(clock *vclock.Clock, heads int, d Discipline, dev disk.Device) *station {
	return &station{
		clock: clock, heads: heads, sched: d, dev: dev, sweepUp: true,
		waits: make([]int64, len(WaitBounds)+2),
	}
}

// submit queues a request; done fires on the clock when its service ends.
func (st *station) submit(tenant uint64, off uint64, svc func() time.Duration, done func()) {
	j := &job{off: off, svc: svc, enq: st.clock.Now(), done: done}
	if st.sched == FCFS {
		st.fair.Push(tenant, j)
	} else {
		st.seek = append(st.seek, j)
	}
	st.dispatch()
}

// next removes and returns the job the discipline serves next, or nil
// when nothing is queued.
func (st *station) next() *job {
	if st.sched == FCFS {
		_, j, _ := st.fair.Pop()
		return j
	}
	if len(st.seek) == 0 {
		return nil
	}
	i := st.pick()
	j := st.seek[i]
	st.seek = slices.Delete(st.seek, i, i+1)
	return j
}

func (st *station) dispatch() {
	for st.inuse < st.heads {
		j := st.next()
		if j == nil {
			return
		}
		st.inuse++
		st.recordWait(st.clock.Now() - j.enq)
		svc := j.svc()
		st.busy += svc
		st.clock.AfterFunc(svc, func() {
			st.inuse--
			j.done()
			st.dispatch()
		})
	}
}

// pick selects the next seek-queue index under SSTF or SCAN.
func (st *station) pick() int {
	// A lone request is served where it stands — in particular SCAN does
	// not reverse its sweep for it.
	if len(st.seek) == 1 {
		return 0
	}
	bs := uint64(st.dev.BlockSize())
	head := st.dev.Head()
	best, bestDist := -1, int(^uint(0)>>1)
	for i, j := range st.seek {
		d := int(j.off/bs) - head
		// SSTF considers every request; SCAN only those ahead of the sweep.
		eligible := st.sched == SSTF || (st.sweepUp && d >= 0) || (!st.sweepUp && d <= 0)
		if d < 0 {
			d = -d
		}
		if eligible && d < bestDist {
			best, bestDist = i, d
		}
	}
	if best == -1 {
		// Nothing ahead of the head: reverse at the end of the sweep.
		st.sweepUp = !st.sweepUp
		return st.pick()
	}
	return best
}

func (st *station) recordWait(w time.Duration) {
	if w <= 0 {
		st.waits[0]++
		return
	}
	for i, b := range WaitBounds {
		if w <= b {
			st.waits[i+1]++
			return
		}
	}
	st.waits[len(st.waits)-1]++
}

// The shed-retry budget mirrors the wire client's default RetryPolicy (4
// attempts, 2ms base backoff, 250ms cap): past it, a real workstation
// abandons the fetch and degrades to what it has cached, so an actor does
// the same and counts the step as degraded.
const (
	shedMaxAttempts = 4
	shedBaseDelay   = 2 * time.Millisecond
	shedMaxDelay    = 250 * time.Millisecond
)

// population is the run state the actors of one experiment share: the
// clock, the termination rule and the tallies.
type population struct {
	clock *vclock.Clock
	// maxSteps, when positive, retires an actor after that many completed
	// steps (closed run); deadline, when positive, stops actors from
	// starting new steps at that virtual time (open run).
	maxSteps int
	deadline time.Duration

	latencies []time.Duration // start → finish, one per completed step
	steps     int64
	offered   int64 // admission attempts
	sheds     int64 // attempts the gate refused
	degraded  int64 // steps abandoned past the retry budget
}

// newPopulation starts a run of the given size on a fresh clock; a run
// needs at least one actor and one termination rule.
func newPopulation(actors, maxSteps int, deadline time.Duration) (population, error) {
	if actors <= 0 {
		return population{}, fmt.Errorf("loadgen: Sessions must be positive")
	}
	if maxSteps <= 0 && deadline <= 0 {
		return population{}, fmt.Errorf("loadgen: one of StepsEach or Duration must be set")
	}
	return population{clock: vclock.New(), maxSteps: maxSteps, deadline: deadline}, nil
}

func (p *population) pastDeadline() bool {
	return p.deadline > 0 && p.clock.Now() >= p.deadline
}

func (p *population) shedRate() float64 {
	if p.offered == 0 {
		return 0
	}
	return float64(p.sheds) / float64(p.offered)
}

// latencySummary condenses a population's completed-step latencies.
type latencySummary struct {
	mean, p50, p95, p99, max time.Duration
}

func (p *population) latencySummary() (s latencySummary) {
	if len(p.latencies) == 0 {
		return s
	}
	sorted := sortedDurations(p.latencies)
	for _, l := range sorted {
		s.mean += l
	}
	s.mean /= time.Duration(len(sorted))
	s.p50, s.p95, s.p99 = percentile(sorted, 0.50), percentile(sorted, 0.95), percentile(sorted, 0.99)
	s.max = sorted[len(sorted)-1]
	return s
}

// actor is one closed-loop user: start a step, pass admission (backing off
// on a shed), finish, think, start the next.
type actor struct {
	pop *population
	rng *rng
	// think is the base pause between steps; jitter adds a uniform random
	// extra so actors do not march in lockstep.
	think, jitter time.Duration
	// begin is the experiment's step function: it picks and runs one step,
	// which must end in finish or finishAfter (or stall the actor by doing
	// neither).
	begin func()
	// current is the in-progress step, re-run after a shed backoff.
	current func()

	steps     int64
	stepStart time.Duration
	attempts  int // admission attempts within the current step
}

func (a *actor) retired() bool {
	return (a.pop.maxSteps > 0 && a.steps >= int64(a.pop.maxSteps)) || a.pop.pastDeadline()
}

// launch staggers the actor's first step across one think window, so a
// population does not arrive as a single synchronized burst.
func (a *actor) launch() {
	window := a.think + a.jitter
	if window <= 0 {
		window = time.Millisecond
	}
	a.pop.clock.AfterFunc(time.Duration(a.rng.below(uint64(window))), a.start)
}

func (a *actor) start() {
	if a.retired() {
		return
	}
	a.stepStart = a.pop.clock.Now()
	a.attempts = 0
	a.begin()
}

// admit passes an admission gate. On a shed it backs off exponentially
// with jitter and re-runs the current step; past the retry budget it
// finishes the step degraded after degradeCost (the link cost of the
// refusal, no device work).
func (a *actor) admit(try func() (release func(), ok bool), degradeCost time.Duration, admitted func(release func())) {
	a.pop.offered++
	a.attempts++
	release, ok := try()
	if ok {
		admitted(release)
		return
	}
	a.pop.sheds++
	if a.attempts >= shedMaxAttempts {
		a.pop.degraded++
		a.finishAfter(degradeCost, nil)
		return
	}
	backoff := shedBaseDelay << (a.attempts - 1)
	if backoff > shedMaxDelay {
		backoff = shedMaxDelay
	}
	// ±50% jitter, like the wire client, so a shed burst does not stampede
	// back in lockstep.
	delay := backoff/2 + time.Duration(a.rng.below(uint64(backoff)))
	a.pop.clock.AfterFunc(delay, func() {
		// Past the deadline the step is abandoned, not completed: an open
		// run must drain.
		if !a.pop.pastDeadline() {
			a.current()
		}
	})
}

// finish completes the current step now, then starts the next one after
// think time.
func (a *actor) finish() {
	a.pop.latencies = append(a.pop.latencies, a.pop.clock.Now()-a.stepStart)
	a.steps++
	a.pop.steps++
	t := a.think
	if a.jitter > 0 {
		t += time.Duration(a.rng.below(uint64(a.jitter)))
	}
	a.pop.clock.AfterFunc(t, a.start)
}

// finishAfter completes the current step once extra virtual time (link
// transfer, CPU) has elapsed, handing back the admission slot held across
// that span.
func (a *actor) finishAfter(extra time.Duration, release func()) {
	a.pop.clock.AfterFunc(extra, func() {
		if release != nil {
			release()
		}
		a.finish()
	})
}
