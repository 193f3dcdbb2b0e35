package loadgen

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"minos/internal/disk"
	"minos/internal/vclock"
)

// deviceStation is a one-head station straight over a raw optical device:
// service time is the disk model's extent read, so seeks are real.
type deviceStation struct {
	*station
	dev   *disk.Optical
	resps []time.Duration // response time (queueing + service) per served request
}

func newDeviceStation(t testing.TB, clock *vclock.Clock, d Discipline, blocks int) *deviceStation {
	t.Helper()
	dev, err := disk.NewOptical("q", disk.OpticalGeometry(blocks))
	if err != nil {
		t.Fatal(err)
	}
	return &deviceStation{station: newStation(clock, 1, d, dev), dev: dev}
}

// read submits one extent read; done (optional) fires when it completes.
func (q *deviceStation) read(off, length uint64, done func()) {
	arrive := q.clock.Now()
	q.submit(0, off, func() time.Duration {
		_, t, err := disk.ReadExtent(q.dev, off, length)
		if err != nil {
			return 0
		}
		return t
	}, func() {
		q.resps = append(q.resps, q.clock.Now()-arrive)
		if done != nil {
			done()
		}
	})
}

func (q *deviceStation) meanMax() (mean, max time.Duration) {
	for _, r := range q.resps {
		mean += r
		if r > max {
			max = r
		}
	}
	return mean / time.Duration(len(q.resps)), max
}

// Property: the station serves every submitted request exactly once,
// regardless of discipline and arrival pattern (conservation).
func TestQuickStationConservation(t *testing.T) {
	f := func(seed uint32, kind8 uint8) bool {
		clock := vclock.New()
		q := newDeviceStation(t, clock, Discipline(kind8%3), 256)
		n := int(seed)%30 + 5
		done := 0
		x := seed
		for i := 0; i < n; i++ {
			x = x*1664525 + 1013904223
			off := uint64(x%200) * uint64(q.dev.BlockSize())
			delay := time.Duration(x%50) * time.Millisecond
			clock.AfterFunc(delay, func() {
				q.read(off, 2048, func() { done++ })
			})
		}
		clock.Run(0)
		return done == n && len(q.resps) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// SCAN must not starve far-away requests: a burst near the head plus one
// far request all complete.
func TestSCANNoStarvation(t *testing.T) {
	clock := vclock.New()
	q := newDeviceStation(t, clock, SCAN, 2048)
	served := map[int]bool{}
	// Far request first, then a stream of near requests arriving while
	// it waits.
	q.read(uint64(2000*q.dev.BlockSize()), 2048, func() { served[-1] = true })
	for i := 0; i < 20; i++ {
		i := i
		clock.AfterFunc(time.Duration(i)*5*time.Millisecond, func() {
			q.read(uint64((i%4)*q.dev.BlockSize()), 2048, func() { served[i] = true })
		})
	}
	clock.Run(0)
	if !served[-1] {
		t.Fatal("SCAN starved the far request")
	}
	if len(served) != 21 {
		t.Fatalf("served %d of 21", len(served))
	}
}

// The station's mean response under contention exceeds the uncontended
// service time (queueing delay is real).
func TestQueueingDelayVisible(t *testing.T) {
	// One request alone.
	clock1 := vclock.New()
	q1 := newDeviceStation(t, clock1, FCFS, 1024)
	q1.read(0, 2048, nil)
	clock1.Run(0)
	mean1, _ := q1.meanMax()

	// Ten simultaneous requests.
	clock2 := vclock.New()
	q2 := newDeviceStation(t, clock2, FCFS, 1024)
	for i := 0; i < 10; i++ {
		q2.read(uint64(i*64*q2.dev.BlockSize()), 2048, nil)
	}
	elapsed := clock2.Run(0)
	mean2, max2 := q2.meanMax()
	if mean2 <= mean1 {
		t.Fatalf("contended mean %v not above solo %v", mean2, mean1)
	}
	if max2 <= mean2 {
		t.Fatalf("max %v not above mean %v", max2, mean2)
	}
	// One head, back-to-back service: the device was busy the whole run,
	// and only the first dispatch found it idle.
	if q2.busy != elapsed {
		t.Fatalf("busy %v over a saturated run of %v", q2.busy, elapsed)
	}
	if q2.waits[0] != 1 {
		t.Fatalf("%d dispatches recorded no wait, want 1 (histogram %v)", q2.waits[0], q2.waits)
	}
}

// TestStationHeadsAndFairness: at most `heads` jobs are in service at once,
// and FCFS serves tenants round-robin — a deep backlog from one tenant does
// not hold up the others.
func TestStationHeadsAndFairness(t *testing.T) {
	clock := vclock.New()
	st := newStation(clock, 2, FCFS, nil)
	var order []uint64
	peak := 0
	submit := func(tenant uint64) {
		st.submit(tenant, 0, func() time.Duration {
			if st.inuse > peak {
				peak = st.inuse
			}
			return 10 * time.Millisecond
		}, func() { order = append(order, tenant) })
	}
	for i := 0; i < 6; i++ {
		submit(1) // tenant 1 floods first
	}
	submit(2)
	submit(3)
	clock.Run(0)
	if peak != 2 {
		t.Fatalf("peak in-service %d, want the 2 heads", peak)
	}
	// Two of tenant 1's jobs take the idle heads; thereafter the ring
	// alternates 1, 2, 3, then drains tenant 1's backlog.
	if want := []uint64{1, 1, 1, 2, 3, 1, 1, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("service order %v, want %v", order, want)
	}
	if got := clock.Now(); got != 40*time.Millisecond {
		t.Fatalf("8 jobs of 10ms on 2 heads took %v, want 40ms", got)
	}
	if st.busy != 80*time.Millisecond {
		t.Fatalf("busy time %v, want 80ms", st.busy)
	}
}

// testActors starts n identical actors at time zero with a fixed 100ms
// think time whose step is step(a); it returns the population after the
// clock drains.
func testActors(t *testing.T, n, maxSteps int, deadline time.Duration, step func(a *actor)) *population {
	t.Helper()
	pop, err := newPopulation(n, maxSteps, deadline)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a := &actor{pop: &pop, rng: sessionRNG(1, i), think: 100 * time.Millisecond}
		a.begin = func() {
			a.current = func() { step(a) }
			a.current()
		}
		a.start()
	}
	pop.clock.Run(0)
	return &pop
}

// A closed population stops on the step count, an open one on the deadline.
func TestActorClosedAndOpenTermination(t *testing.T) {
	work := func(a *actor) { a.finishAfter(10*time.Millisecond, nil) }

	closed := testActors(t, 3, 5, 0, work)
	if closed.steps != 15 || len(closed.latencies) != 15 {
		t.Fatalf("closed run completed %d steps (%d latencies), want 3x5", closed.steps, len(closed.latencies))
	}
	for _, l := range closed.latencies {
		if l != 10*time.Millisecond {
			t.Fatalf("step latency %v, want the 10ms of work", l)
		}
	}

	// Open: a step takes 10ms + 100ms think, so steps start at 0, 110, ...,
	// 990ms; the start due at 1100ms is past the 1s deadline and never runs.
	open := testActors(t, 3, 0, time.Second, work)
	if open.steps != 30 {
		t.Fatalf("open run completed %d steps, want 3x10", open.steps)
	}
	if end := open.clock.Now(); end != 1100*time.Millisecond {
		t.Fatalf("open run drained at %v, want 1.1s", end)
	}

	if _, err := newPopulation(0, 1, 0); err == nil {
		t.Fatal("empty population accepted")
	}
	if _, err := newPopulation(1, 0, 0); err == nil {
		t.Fatal("population with no termination rule accepted")
	}
}

// launch staggers first steps across one think window.
func TestActorLaunchStagger(t *testing.T) {
	pop, err := newPopulation(20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	starts := map[time.Duration]bool{}
	for i := 0; i < 20; i++ {
		a := &actor{pop: &pop, rng: sessionRNG(3, i), think: 100 * time.Millisecond, jitter: 50 * time.Millisecond}
		a.begin = func() {
			starts[a.stepStart] = true
			a.finish()
		}
		a.launch()
	}
	pop.clock.Run(0)
	for at := range starts {
		if at >= 150*time.Millisecond {
			t.Fatalf("first step at %v, outside the 150ms think window", at)
		}
	}
	if len(starts) < 15 {
		t.Fatalf("20 actors started at only %d distinct instants", len(starts))
	}
}

// A gate that always sheds: the actor retries with growing backoff, then
// degrades the step on the 4th refusal and moves on.
func TestActorDegradesAfterFourthShed(t *testing.T) {
	var attemptAt []time.Duration
	pop := testActors(t, 1, 2, 0, func(a *actor) {
		attemptAt = append(attemptAt, a.pop.clock.Now()-a.stepStart)
		a.admit(func() (func(), bool) { return nil, false }, 5*time.Millisecond,
			func(func()) { t.Fatal("admitted through a closed gate") })
	})
	if pop.offered != 8 || pop.sheds != 8 || pop.degraded != 2 || pop.steps != 2 {
		t.Fatalf("offered=%d sheds=%d degraded=%d steps=%d, want 8/8/2/2", pop.offered, pop.sheds, pop.degraded, pop.steps)
	}
	// Per step: an attempt, then backoffs of 2, 4 and 8 ms, each ±50%.
	for i, at := range attemptAt[:4] {
		lo := []time.Duration{0, 1, 3, 7}[i] * time.Millisecond
		hi := []time.Duration{0, 3, 9, 21}[i] * time.Millisecond
		if at < lo || at > hi {
			t.Fatalf("attempt %d at +%v, want within [%v, %v]", i+1, at, lo, hi)
		}
	}
	// A degraded step still pays its degradeCost after the last refusal.
	if got, want := pop.latencies[0], attemptAt[3]+5*time.Millisecond; got != want {
		t.Fatalf("degraded step latency %v, want %v", got, want)
	}
}

// A shed whose backoff ends past the deadline is abandoned, not retried,
// degraded or completed: an open run must drain.
func TestActorAbandonsPastDeadline(t *testing.T) {
	attempts := 0
	// The first backoff is 1..3ms; the deadline falls inside it.
	pop := testActors(t, 1, 0, time.Millisecond, func(a *actor) {
		attempts++
		a.admit(func() (func(), bool) { return nil, false }, 0,
			func(func()) { t.Fatal("admitted through a closed gate") })
	})
	if attempts != 1 || pop.offered != 1 || pop.sheds != 1 {
		t.Fatalf("attempts=%d offered=%d sheds=%d, want one shed attempt", attempts, pop.offered, pop.sheds)
	}
	if pop.steps != 0 || pop.degraded != 0 || len(pop.latencies) != 0 {
		t.Fatalf("abandoned step was counted: steps=%d degraded=%d", pop.steps, pop.degraded)
	}
	if n := pop.clock.Pending(); n != 0 {
		t.Fatalf("%d events pending after the run drained", n)
	}
}

// The one percentile rule: nearest rank, round(p*n), clamped.
func TestPercentileTable(t *testing.T) {
	ramp := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i + 1) // the sample at rank r is r
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		rank time.Duration
	}{
		{1, 0.50, 1}, {1, 0.95, 1}, {1, 0.99, 1},
		{2, 0.50, 1}, {2, 0.95, 2}, {2, 0.99, 2},
		{12, 0.50, 6}, {12, 0.95, 11}, {12, 0.99, 12},
		{100, 0.50, 50}, {100, 0.95, 95}, {100, 0.99, 99}, {100, 1.00, 100},
		{100, 0.001, 1}, // clamped below
	} {
		if got := percentile(ramp(c.n), c.p); got != c.rank {
			t.Errorf("percentile(n=%d, p=%v) = rank %d, want %d", c.n, c.p, got, c.rank)
		}
	}
	if got := percentile(nil, 0.95); got != 0 {
		t.Errorf("percentile of an empty set = %v, want 0", got)
	}
	unsorted := []time.Duration{3, 1, 2}
	if s := sortedDurations(unsorted); !reflect.DeepEqual(s, []time.Duration{1, 2, 3}) || unsorted[0] != 3 {
		t.Errorf("sortedDurations = %v (input now %v), want a sorted copy", s, unsorted)
	}
}
