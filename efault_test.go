package minos

import (
	"context"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"minos/internal/core"
	"minos/internal/demo"
	"minos/internal/faults"
	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/vclock"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// E-FAULT: the resilient wire layer under injected faults. A scripted
// browse of a 25+ result set runs over real TCP with ~5% of frames
// dropped by a seeded injector, and the server is killed and restarted
// mid-browse (listener and every open connection closed, as a process
// restart looks from the network). Acceptance: the browse completes, every
// miniature is correct — an object rewritten across the restart surfaces
// with its new miniature, generation-checked, never a stale cached one —
// and per-step p99 latency stays within 10x of a fault-free baseline run
// (with a small absolute floor for scheduler granularity).

const (
	efaultMinResults = 25
	efaultDrop       = 0.05
)

// trackListener records accepted connections so a "server restart" can
// sever them all at once.
type trackListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (tl *trackListener) Accept() (net.Conn, error) {
	c, err := tl.Listener.Accept()
	if err == nil {
		tl.mu.Lock()
		tl.conns = append(tl.conns, c)
		tl.mu.Unlock()
	}
	return c, err
}

// kill closes the listener and every accepted connection.
func (tl *trackListener) kill() {
	tl.Listener.Close()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for _, c := range tl.conns {
		c.Close()
	}
	tl.conns = nil
}

func efaultListen(t *testing.T, srv *wire.Handler, addr string) *trackListener {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackListener{Listener: l}
	go wire.ServeWith(tl, srv, wire.ServeOpts{})
	return tl
}

func efaultP99(lats []time.Duration) time.Duration {
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)*99/100]
}

func efaultBmEqual(a, b *img.Bitmap) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.W != b.W || a.H != b.H {
		return false
	}
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			if a.Get(x, y) != b.Get(x, y) {
				return false
			}
		}
	}
	return true
}

func TestEFaultResilientBrowse(t *testing.T) {
	corpus, err := demo.Build(1<<15, 40)
	if err != nil {
		t.Fatal(err)
	}
	handler := &wire.Handler{Srv: corpus.Server}
	cfg := func() core.Config {
		return core.Config{Screen: screen.New(240, 140), Clock: vclock.New()}
	}

	// --- Fault-free baseline over TCP with the mux transport. ---
	tl := efaultListen(t, handler, "127.0.0.1:0")
	tp, err := wire.DialMux(tl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	base := workstation.New(wire.NewClient(tp), cfg())
	base.EnablePrefetch(workstation.PrefetchConfig{Depth: 8, Batch: 4})
	n, err := base.QueryCtx(context.Background(), "lung")
	if err != nil {
		t.Fatal(err)
	}
	if n < efaultMinResults {
		t.Fatalf("only %d hits for %q; corpus too small for the experiment", n, "lung")
	}
	var baseLats []time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		st, err := base.NextMiniatureCtx(context.Background())
		if err != nil {
			t.Fatalf("baseline step %d: %v", i, err)
		}
		if st.Done {
			break
		}
		baseLats = append(baseLats, time.Since(t0))
		if st.Stale || st.Mini == nil || st.Mini.PopCount() == 0 {
			t.Fatalf("baseline step %d: stale=%v blank miniature", i, st.Stale)
		}
	}
	if len(baseLats) != n {
		t.Fatalf("baseline browsed %d of %d results", len(baseLats), n)
	}
	base.Close()
	tl.kill()

	// --- Faulted run: 5% frame loss plus a mid-browse server restart. ---
	tl = efaultListen(t, handler, "127.0.0.1:0")
	addr := tl.Addr().String()
	inj := faults.New(faults.Config{Seed: 7, Drop: efaultDrop})
	dial := inj.WrapRedial(func() (wire.Transport, error) { return wire.DialMux(addr) })
	ft, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client := wire.NewClient(ft)
	client.SetRetryPolicy(wire.RetryPolicy{MaxAttempts: 8, BaseDelay: 500 * time.Microsecond, MaxDelay: 5 * time.Millisecond})
	client.EnableReconnect(dial)
	sess := workstation.New(client, cfg())
	sess.EnablePrefetch(workstation.PrefetchConfig{Depth: 8, Batch: 4})
	fn, err := sess.QueryCtx(context.Background(), "lung")
	if err != nil {
		t.Fatal(err)
	}
	if fn != n {
		t.Fatalf("faulted query = %d hits, baseline had %d", fn, n)
	}

	// The victim: a filler document in the back half of the result order.
	// It is rewritten during the restart; the post-restart browse must show
	// its new miniature (the resync generation bump makes the cached old
	// one invisible).
	var victim object.ID
	for _, id := range sess.Results()[n/2+1:] {
		if id >= 1000 {
			victim = id
			break
		}
	}
	if victim == 0 {
		t.Fatal("no filler document in the back half of the results")
	}

	restartAt := n / 2
	var want, got *img.Bitmap
	var faultLats []time.Duration
	for i := 0; ; i++ {
		if i == restartAt {
			changed, err := object.NewBuilder(victim, "rewritten", object.Visual).
				Text(".title Rewritten Notes\nlung lung entirely new content after the restart.\n").
				Build()
			if err != nil {
				t.Fatal(err)
			}
			corpus.Server.Adopt(changed)
			want = corpus.Server.Miniature(victim)
			lost := client.Reconnects()
			tl.kill()
			tl = efaultListen(t, handler, addr)
			// The contract is "once the transport has observed the
			// connection's death, no pre-death miniature is served as
			// fresh" — the strongest a client can promise without a round
			// trip per cached step. The victim may already sit in the
			// read-ahead cache, so wait for that observation (the counter
			// the session polls moves on death or on a redial by the
			// prefetcher, whichever comes first), not for a duration.
			for deadline := time.Now().Add(5 * time.Second); client.Reconnects() == lost; {
				if time.Now().After(deadline) {
					t.Fatal("the client never observed the restart")
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		t0 := time.Now()
		st, err := sess.NextMiniatureCtx(context.Background())
		if err != nil {
			t.Fatalf("faulted step %d: %v", i, err)
		}
		if st.Done {
			break
		}
		faultLats = append(faultLats, time.Since(t0))
		if st.Stale {
			t.Fatalf("step %d flagged stale while the server was reachable", i)
		}
		if st.Mini == nil || st.Mini.PopCount() == 0 {
			t.Fatalf("blank miniature at faulted step %d", i)
		}
		if st.ID == victim {
			got = st.Mini
		}
	}
	if len(faultLats) != n {
		t.Fatalf("faulted run browsed %d of %d results", len(faultLats), n)
	}
	sess.Close()

	if client.Reconnects() == 0 {
		t.Fatal("server restarted but the client never reconnected")
	}
	if got == nil {
		t.Fatal("victim object never browsed after the restart")
	}
	if !efaultBmEqual(got, want) {
		t.Fatal("post-restart browse surfaced the pre-restart miniature")
	}
	// No pending-call leaks on the multiplexed transport.
	mux := client.Transport().(*faults.Transport).Unwrap().(*wire.MuxTransport)
	if p := mux.PendingCalls(); p != 0 {
		t.Fatalf("mux transport leaked %d pending calls", p)
	}
	fst := inj.Stats()
	if fst.Drops == 0 {
		t.Fatalf("fault schedule injected no drops across %d exchanges", fst.Calls)
	}

	bp, fp := efaultP99(baseLats), efaultP99(faultLats)
	t.Logf("E-FAULT: %d miniatures; baseline p99 %v; faulted p99 %v; %d/%d frames dropped; %d reconnects",
		n, bp, fp, fst.Drops, fst.Calls, client.Reconnects())
	if limit := 10 * bp; fp > limit && fp > 50*time.Millisecond {
		t.Fatalf("faulted p99 %v exceeds 10x baseline %v (and the 50ms floor)", fp, bp)
	}
}
