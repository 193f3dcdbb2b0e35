package faults_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"minos/internal/archiver"
	"minos/internal/disk"
	"minos/internal/faults"
	"minos/internal/object"
	"minos/internal/server"
	"minos/internal/wire"
)

// testServer publishes n visual objects all matching "survey".
func testServer(t testing.TB, n int) *server.Server {
	t.Helper()
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(8192))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(archiver.New(dev))
	for i := 1; i <= n; i++ {
		o, err := object.NewBuilder(object.ID(i), fmt.Sprintf("doc%d", i), object.Visual).
			Text(fmt.Sprintf(".title Survey %d\nsurvey item number %d distinct body.\n", i, i)).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Publish(o); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

func noRetry() wire.RetryPolicy { return wire.RetryPolicy{MaxAttempts: 1} }

// TestDeterministicSchedule: the same seed over the same traffic order must
// inject the same faults — a failing run replays from its seed.
func TestDeterministicSchedule(t *testing.T) {
	cfg := faults.Config{Seed: 7, Drop: 0.1, Truncate: 0.1, Corrupt: 0.1, Stall: 0.05, StallFor: time.Microsecond, DropFor: time.Microsecond}
	run := func() faults.Stats {
		srv := testServer(t, 2)
		inj := faults.New(cfg)
		ft := inj.Wrap(wire.EthernetLink(&wire.Handler{Srv: srv}))
		for i := 0; i < 200; i++ {
			ft.RoundTrip([]byte{5 /* OpList */})
		}
		return inj.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("schedules diverge: %+v vs %+v", a, b)
	}
	if a.Calls != 200 || a.Drops == 0 || a.Truncates == 0 || a.Corrupts == 0 || a.Stalls == 0 {
		t.Fatalf("schedule did not exercise every fault: %+v", a)
	}
}

// TestFaultClassification: each injected fault must surface as the
// documented sentinel with the documented retryability, because the retry
// loop's whole design rests on that classification.
func TestFaultClassification(t *testing.T) {
	newClient := func(cfg faults.Config) (*wire.Client, *faults.Injector) {
		srv := testServer(t, 2)
		inj := faults.New(cfg)
		c := wire.NewClient(inj.Wrap(wire.EthernetLink(&wire.Handler{Srv: srv})))
		c.SetRetryPolicy(noRetry())
		return c, inj
	}

	t.Run("drop", func(t *testing.T) {
		c, _ := newClient(faults.Config{Drop: 1, DropFor: time.Microsecond})
		_, _, err := c.ListCtx(context.Background())
		if !errors.Is(err, wire.ErrCallTimeout) {
			t.Fatalf("drop error = %v, want ErrCallTimeout", err)
		}
		if !wire.IsRetryable(err) || wire.NeedsReconnect(err) {
			t.Fatalf("drop misclassified: retryable=%v reconnect=%v", wire.IsRetryable(err), wire.NeedsReconnect(err))
		}
	})

	t.Run("truncate", func(t *testing.T) {
		c, _ := newClient(faults.Config{Truncate: 1})
		_, _, err := c.ListCtx(context.Background())
		if !errors.Is(err, wire.ErrShort) {
			t.Fatalf("truncate error = %v, want ErrShort", err)
		}
		if !wire.IsRetryable(err) {
			t.Fatal("truncated frame not retryable")
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		c, _ := newClient(faults.Config{Corrupt: 1})
		_, _, err := c.ListCtx(context.Background())
		if !errors.Is(err, wire.ErrShort) {
			t.Fatalf("corrupt error = %v, want ErrShort", err)
		}
		if !wire.IsRetryable(err) {
			t.Fatal("corrupt frame not retryable")
		}
	})

	t.Run("reset", func(t *testing.T) {
		c, _ := newClient(faults.Config{Reset: 1})
		_, _, err := c.ListCtx(context.Background())
		if !errors.Is(err, wire.ErrTransportClosed) {
			t.Fatalf("reset error = %v, want ErrTransportClosed", err)
		}
		if !wire.NeedsReconnect(err) {
			t.Fatal("reset not classified as needing reconnect")
		}
		// The connection stays dead: later calls fail fast the same way.
		if _, _, err := c.ListCtx(context.Background()); !errors.Is(err, wire.ErrTransportClosed) {
			t.Fatalf("post-reset error = %v", err)
		}
	})

	t.Run("stall", func(t *testing.T) {
		c, _ := newClient(faults.Config{Stall: 1, StallFor: 20 * time.Millisecond})
		start := time.Now()
		if _, _, err := c.ListCtx(context.Background()); err != nil {
			t.Fatalf("stalled call failed: %v", err)
		}
		if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
			t.Fatalf("stall not applied: call took %v", elapsed)
		}
	})
}

// TestRetryRecoversFromFaults: a client with the retry loop and a redialer
// drives correct traffic straight through a mixed fault schedule, including
// connection resets (recovered by reconnecting through the same injector).
func TestRetryRecoversFromFaults(t *testing.T) {
	const n = 8
	srv := testServer(t, n)
	inj := faults.New(faults.Config{
		Seed: 42, Drop: 0.08, Reset: 0.04, Truncate: 0.05, Corrupt: 0.05, Stall: 0.05,
		StallFor: 100 * time.Microsecond, DropFor: 50 * time.Microsecond,
	})
	dial := func() (wire.Transport, error) {
		return wire.EthernetLink(&wire.Handler{Srv: srv}), nil
	}
	first, _ := inj.WrapRedial(dial)()
	c := wire.NewClient(first)
	c.SetRetryPolicy(wire.RetryPolicy{MaxAttempts: 8, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond})
	c.EnableReconnect(inj.WrapRedial(dial))

	for i := 0; i < 150; i++ {
		ids, _, err := c.QueryCtx(context.Background(), "survey")
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(ids) != n {
			t.Fatalf("call %d: %d hits, want %d", i, len(ids), n)
		}
		id := object.ID(i%n + 1)
		res, _, err := c.MiniaturesCtx(context.Background(), []object.ID{id})
		if err != nil {
			t.Fatalf("call %d miniatures: %v", i, err)
		}
		if len(res) != 1 || !res[0].OK || res[0].Mini.PopCount() == 0 {
			t.Fatalf("call %d: bad miniature %+v", i, res)
		}
	}
	st := inj.Stats()
	if st.Drops == 0 || st.Resets == 0 || st.Truncates == 0 || st.Corrupts == 0 {
		t.Fatalf("schedule did not exercise every fault: %+v", st)
	}
	if c.Reconnects() == 0 {
		t.Fatal("resets fired but the client never reconnected")
	}
}

// TestLoadSheddingBusyRetry: an admission-bounded server sheds overload
// with a retryable busy error; clients that back off and retry all finish,
// and the server counts what it shed.
func TestLoadSheddingBusyRetry(t *testing.T) {
	srv := testServer(t, 4)
	srv.SetMaxInFlight(1)
	lt := wire.EthernetLink(&wire.Handler{Srv: srv})
	c := wire.NewClient(lt)
	c.SetRetryPolicy(wire.RetryPolicy{MaxAttempts: 12, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond})

	// Hold the only admission slot while the workers start, so the first
	// wave deterministically sheds; release it shortly after and the retry
	// loops drain through.
	release, err := srv.Admit()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		release()
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := c.DescriptorCtx(context.Background(), object.ID(g%4+1)); err != nil {
					errs <- fmt.Errorf("worker %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if shed := srv.Stats().Shed; shed == 0 {
		t.Fatal("8 workers against max-in-flight 1 never shed")
	}
}

// TestBusyNotShedForCheapOps: load shedding applies to device-bound ops
// only; the cheap in-memory ops a degraded client depends on (query,
// miniatures) are always served even when the admission queue is full.
func TestBusyNotShedForCheapOps(t *testing.T) {
	srv := testServer(t, 4)
	srv.SetMaxInFlight(1)
	// Occupy the only admission slot directly.
	release, err := srv.Admit()
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	c := wire.NewClient(wire.EthernetLink(&wire.Handler{Srv: srv}))
	c.SetRetryPolicy(noRetry())
	if _, _, err := c.QueryCtx(context.Background(), "survey"); err != nil {
		t.Fatalf("query shed under full admission queue: %v", err)
	}
	if _, _, err := c.MiniaturesCtx(context.Background(), []object.ID{1}); err != nil {
		t.Fatalf("miniatures shed under full admission queue: %v", err)
	}
	// A device-bound op is shed with the retryable busy error.
	_, _, err = c.DescriptorCtx(context.Background(), 1)
	if !errors.Is(err, wire.ErrServerBusy) {
		t.Fatalf("descriptor under full queue = %v, want ErrServerBusy", err)
	}
	if !wire.IsRetryable(err) {
		t.Fatal("busy not retryable")
	}
}
