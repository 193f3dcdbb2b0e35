package loadgen

import (
	"strings"
	"testing"
	"time"

	"minos/internal/archiver"
	"minos/internal/disk"
	"minos/internal/object"
	"minos/internal/server"
)

// opticalServer is an empty server over a fresh optical device.
func opticalServer(t testing.TB, blocks int, opts ...server.Option) *server.Server {
	t.Helper()
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(blocks))
	if err != nil {
		t.Fatal(err)
	}
	return server.New(archiver.New(dev), opts...)
}

func publishDoc(t testing.TB, s *server.Server, id object.ID, body string) {
	t.Helper()
	o, err := object.NewBuilder(id, "doc", object.Visual).Text(body).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(o); err != nil {
		t.Fatal(err)
	}
}

func publishMany(t testing.TB, s *server.Server, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		body := ".title Doc\n" + strings.Repeat("filler words to occupy several blocks of optical storage. ", 30) + "\n"
		publishDoc(t, s, object.ID(i), body)
	}
}

func TestRunQueueResponseGrowsWithClients(t *testing.T) {
	s := opticalServer(t, 8192, server.WithCache(0))
	publishMany(t, s, 10)
	light := RunQueue(s, QueueConfig{Clients: 1, RequestsEach: 12, ThinkTime: 50 * time.Millisecond, PieceLen: 4096, Sched: FCFS, Seed: 1})
	heavy := RunQueue(s, QueueConfig{Clients: 12, RequestsEach: 12, ThinkTime: 50 * time.Millisecond, PieceLen: 4096, Sched: FCFS, Seed: 1})
	if light.Served != 12 || heavy.Served != 144 {
		t.Fatalf("served %d / %d", light.Served, heavy.Served)
	}
	if heavy.Mean <= light.Mean {
		t.Fatalf("mean response did not grow with load: light=%v heavy=%v", light.Mean, heavy.Mean)
	}
	if heavy.Utilization <= light.Utilization {
		t.Fatalf("utilization did not grow: %v vs %v", heavy.Utilization, light.Utilization)
	}
}

func TestRunQueueSchedulerHelps(t *testing.T) {
	s1 := opticalServer(t, 8192, server.WithCache(0))
	publishMany(t, s1, 12)
	fcfs := RunQueue(s1, QueueConfig{Clients: 10, RequestsEach: 10, ThinkTime: 5 * time.Millisecond, PieceLen: 2048, Sched: FCFS, Seed: 3})

	s2 := opticalServer(t, 8192, server.WithCache(0))
	publishMany(t, s2, 12)
	sstf := RunQueue(s2, QueueConfig{Clients: 10, RequestsEach: 10, ThinkTime: 5 * time.Millisecond, PieceLen: 2048, Sched: SSTF, Seed: 3})

	if sstf.Mean >= fcfs.Mean {
		t.Fatalf("SSTF (%v) not better than FCFS (%v) under load", sstf.Mean, fcfs.Mean)
	}
}

func TestRunQueueEmpty(t *testing.T) {
	s := opticalServer(t, 64)
	st := RunQueue(s, QueueConfig{Clients: 2, RequestsEach: 2})
	if st.Served != 0 {
		t.Fatalf("served %d on empty archive", st.Served)
	}
}

func TestDisciplineString(t *testing.T) {
	if FCFS.String() != "fcfs" || SSTF.String() != "sstf" || SCAN.String() != "scan" {
		t.Fatal("Discipline.String mismatch")
	}
}

func TestSCANServesAll(t *testing.T) {
	s := opticalServer(t, 8192, server.WithCache(0))
	publishMany(t, s, 12)
	scan := RunQueue(s, QueueConfig{Clients: 8, RequestsEach: 8, ThinkTime: time.Millisecond, PieceLen: 2048, Sched: SCAN, Seed: 5})
	if scan.Served != 64 {
		t.Fatalf("SCAN served %d of 64", scan.Served)
	}
}

// contentionServer archives a spread of documents so the contention sim
// has a hot set to warm and cold extents for background misses.
func contentionServer(t testing.TB) *server.Server {
	t.Helper()
	s := opticalServer(t, 8192)
	for i := 1; i <= 16; i++ {
		publishDoc(t, s, object.ID(i), strings.Repeat("payload words for extent spacing.\n", 40+i*5))
	}
	return s
}

// TestRunContentionModels is the E-CONC experiment: the same mixed
// workload (8 cache-hit clients + 2 cold readers) under the seed's global
// handler lock vs. the device-only lock. Dropping the global lock must buy
// cache hits at least 1.5x throughput — in practice far more, since under
// GlobalLock every hit waits out in-progress optical reads.
func TestRunContentionModels(t *testing.T) {
	cfg := ContentionConfig{
		Clients:      8,
		RequestsEach: 50,
		PieceLen:     4096,
		HotExtents:   6,
		ColdReaders:  2,
		Seed:         7,
	}
	cfg.Model = GlobalLock
	global := RunContention(contentionServer(t), cfg)
	cfg.Model = DeviceLock
	device := RunContention(contentionServer(t), cfg)

	want := cfg.Clients * cfg.RequestsEach
	if global.HitRequests != want || device.HitRequests != want {
		t.Fatalf("hit requests = %d / %d, want %d", global.HitRequests, device.HitRequests, want)
	}
	if global.ColdRequests == 0 {
		t.Fatal("global-lock run saw no background misses")
	}
	if global.HitThroughput <= 0 || device.HitThroughput <= 0 {
		t.Fatalf("throughput = %v / %v", global.HitThroughput, device.HitThroughput)
	}
	ratio := device.HitThroughput / global.HitThroughput
	t.Logf("global-lock: %.0f hits/s mean %v p95 %v elapsed %v (%d cold reads)",
		global.HitThroughput, global.HitMean, global.HitP95, global.Elapsed, global.ColdRequests)
	t.Logf("device-lock: %.0f hits/s mean %v p95 %v elapsed %v (%d cold reads)",
		device.HitThroughput, device.HitMean, device.HitP95, device.Elapsed, device.ColdRequests)
	t.Logf("ratio: %.1fx", ratio)
	if ratio < 1.5 {
		t.Fatalf("device-lock hit throughput only %.2fx global-lock, want > 1.5x", ratio)
	}
	if device.HitP95 >= global.HitP95 {
		t.Fatalf("device-lock p95 %v not below global-lock p95 %v", device.HitP95, global.HitP95)
	}
}

// An empty or trivial config must not hang or divide by zero.
func TestRunContentionDegenerate(t *testing.T) {
	s := opticalServer(t, 256)
	if st := RunContention(s, ContentionConfig{Clients: 4, RequestsEach: 4}); st.HitRequests != 0 {
		t.Fatalf("empty archive produced %d hits", st.HitRequests)
	}
	s2 := contentionServer(t)
	st := RunContention(s2, ContentionConfig{Clients: 1, RequestsEach: 1, Model: DeviceLock})
	if st.HitRequests != 1 || st.HitThroughput <= 0 {
		t.Fatalf("single request run = %+v", st)
	}
}
