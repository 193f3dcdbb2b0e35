// E-QUEUE and E-CONC: the two small queueing experiments over one server's
// device — §5's "queueing delays that may be experienced when several users
// try to access data from the same device". Both are closed populations of
// kernel actors reading random archived extents through the server's real
// cache, in front of one kernel station; only the discipline and who must
// visit the station differ.
package loadgen

import (
	"fmt"
	"time"

	"minos/internal/disk"
	"minos/internal/server"
)

// archivedExtents lists the archive extent of every object on srv, in
// archive order.
func archivedExtents(srv *server.Server) []extentRange {
	arch := srv.Archiver()
	var exts []extentRange
	for _, id := range arch.IDs() {
		if e, err := arch.ExtentOf(id); err == nil {
			exts = append(exts, extentRange{start: e.Start, length: e.Length})
		}
	}
	return exts
}

// randomPiece draws a piece read of at most pieceLen bytes (0 = the whole
// extent) at a random offset inside a random extent.
func randomPiece(r *rng, exts []extentRange, pieceLen uint64) (off, length uint64) {
	e := exts[r.below(uint64(len(exts)))]
	length = pieceLen
	if length == 0 || length > e.length {
		length = e.length
	}
	off = e.start
	if e.length > length {
		off += r.below(e.length - length)
	}
	return off, length
}

// QueueConfig drives a closed queueing network: Clients users each issue
// RequestsEach piece reads with ThinkTime between them.
type QueueConfig struct {
	Clients      int
	RequestsEach int
	ThinkTime    time.Duration
	// PieceLen is the read size per request in bytes (0 = whole extent).
	PieceLen uint64
	// Sched selects the device scheduler.
	Sched Discipline
	// Seed varies the access pattern.
	Seed uint64
}

// QueueStats summarizes a RunQueue run. All times are virtual.
type QueueStats struct {
	Served      int
	Mean        time.Duration // response time: queueing + service
	P95         time.Duration
	Max         time.Duration
	Utilization float64 // device busy time / elapsed
	Elapsed     time.Duration
}

// RunQueue runs the closed-network load against srv's device through its
// cache, with requests targeting random archived extents, under the chosen
// scheduler — the E-QUEUE experiment.
func RunQueue(srv *server.Server, cfg QueueConfig) QueueStats {
	exts := archivedExtents(srv)
	pop, err := newPopulation(cfg.Clients, cfg.RequestsEach, 0)
	if err != nil || len(exts) == 0 {
		return QueueStats{}
	}
	device := newStation(pop.clock, 1, cfg.Sched, srv.Archiver().Device())
	r := sharedRNG(cfg.Seed)
	for c := 0; c < cfg.Clients; c++ {
		a := &actor{pop: &pop, rng: r, think: cfg.ThinkTime}
		a.begin = func() {
			off, length := randomPiece(r, exts, cfg.PieceLen)
			device.submit(0, off, func() time.Duration {
				_, t, err := srv.ReadPiece(off, length)
				if err != nil {
					return 0
				}
				return t
			}, a.finish)
		}
		// Stagger arrivals slightly so clients do not align perfectly.
		pop.clock.AfterFunc(time.Duration(c)*time.Millisecond, a.start)
	}
	elapsed := pop.clock.Run(0)

	lat := pop.latencySummary()
	st := QueueStats{Served: len(pop.latencies), Mean: lat.mean, P95: lat.p95, Max: lat.max, Elapsed: elapsed}
	if elapsed > 0 {
		st.Utilization = float64(device.busy) / float64(elapsed)
	}
	return st
}

// LockModel selects the serialization discipline RunContention imposes on
// the server.
type LockModel uint8

const (
	// GlobalLock models the seed server: one mutex around every request,
	// so cache hits queue behind device-bound misses (and behind each
	// other).
	GlobalLock LockModel = iota
	// DeviceLock models the current server: only device reads serialize
	// on the seek semaphore; cache hits proceed concurrently.
	DeviceLock
)

// String names the lock model.
func (m LockModel) String() string {
	switch m {
	case GlobalLock:
		return "global-lock"
	case DeviceLock:
		return "device-lock"
	}
	return fmt.Sprintf("LockModel(%d)", uint8(m))
}

// ContentionConfig drives RunContention: Clients closed-loop readers issue
// cache-hit piece reads from a warmed hot set while ColdReaders stream
// cache-miss reads from the remaining extents, under the chosen lock
// discipline. A cache hit costs stepCPU.
type ContentionConfig struct {
	// Clients is the number of concurrent cache-hit readers.
	Clients int
	// RequestsEach is the number of hit reads each client issues.
	RequestsEach int
	// PieceLen is the hit read size in bytes (0 = whole extent).
	PieceLen uint64
	// HotExtents is the number of archived objects forming the warmed hot
	// set (0 = half of them, at least one).
	HotExtents int
	// ColdReaders stream cache-miss reads from outside the hot set for
	// the duration of the run (0 = no background device load).
	ColdReaders int
	// Seed varies the access pattern.
	Seed uint64
	// Model is the lock discipline under test.
	Model LockModel
}

// ContentionStats summarizes one RunContention run. All times are virtual.
type ContentionStats struct {
	Model         LockModel
	HitRequests   int
	ColdRequests  int
	Elapsed       time.Duration // virtual time until the last hit client finished
	HitThroughput float64       // cache-hit reads per simulated second
	HitMean       time.Duration
	HitP95        time.Duration
}

// RunContention replays §5's multi-user scenario on the virtual clock
// under a chosen lock discipline and reports cache-hit throughput — the
// E-CONC experiment. Under GlobalLock every request, hit or miss, is served
// by one FCFS station (the seed's handler mutex), so a hit arriving behind
// an optical read waits out the whole seek. Under DeviceLock only misses
// visit that station and hits cost just their CPU time, concurrently. The
// ratio of the two HitThroughput values is the measured payoff of the lock
// split, with miss service times taken from the real disk model.
func RunContention(srv *server.Server, cfg ContentionConfig) ContentionStats {
	st := ContentionStats{Model: cfg.Model}
	exts := archivedExtents(srv)
	pop, err := newPopulation(cfg.Clients, cfg.RequestsEach, 0)
	if err != nil || len(exts) == 0 {
		return st
	}
	nh := cfg.HotExtents
	if nh <= 0 {
		nh = max(len(exts)/2, 1)
	}
	nh = min(nh, len(exts))
	hot, cold := exts[:nh], exts[nh:]
	// Warm the hot set so the measured clients really are cache-hit
	// traffic.
	for _, e := range hot {
		srv.ReadPiece(e.start, e.length)
	}

	// One FCFS station: the global mutex (GlobalLock) or the device seek
	// semaphore (DeviceLock).
	lock := newStation(pop.clock, 1, FCFS, nil)
	dev := srv.Archiver().Device()
	r := sharedRNG(cfg.Seed)
	finished := 0 // hit clients that have issued all their reads

	// Cold readers are an open population of their own: they stream misses
	// until the last hit client is done.
	if len(cold) > 0 {
		background := population{clock: pop.clock}
		for c := 0; c < cfg.ColdReaders; c++ {
			a := &actor{pop: &background, rng: r}
			a.begin = func() {
				if finished >= cfg.Clients {
					return
				}
				e := cold[r.below(uint64(len(cold)))]
				lock.submit(0, e.start, func() time.Duration {
					_, t, err := disk.ReadExtent(dev, e.start, e.length)
					if err != nil {
						return 0
					}
					st.ColdRequests++
					return t
				}, a.finish)
			}
			a.start()
		}
	}
	for c := 0; c < cfg.Clients; c++ {
		a := &actor{pop: &pop, rng: r}
		done := func() {
			a.finish()
			if a.retired() {
				finished++
				st.Elapsed = pop.clock.Now()
			}
		}
		a.begin = func() {
			off, length := randomPiece(r, hot, cfg.PieceLen)
			// Serve through the real cache; dt is zero when the warm-up
			// covered the blocks and charges honest device time otherwise.
			_, dt, err := srv.ReadPiece(off, length)
			svc := stepCPU + dt
			if err != nil {
				svc = stepCPU
			}
			if cfg.Model == GlobalLock {
				lock.submit(0, off, func() time.Duration { return svc }, done)
			} else {
				// Hits bypass the device station entirely.
				pop.clock.AfterFunc(svc, done)
			}
		}
		a.start()
	}
	pop.clock.Run(0)

	lat := pop.latencySummary()
	st.HitRequests, st.HitMean, st.HitP95 = len(pop.latencies), lat.mean, lat.p95
	if st.Elapsed > 0 {
		st.HitThroughput = float64(st.HitRequests) / st.Elapsed.Seconds()
	}
	return st
}
