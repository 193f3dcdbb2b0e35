package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"minos/internal/object"
	"minos/internal/server"
)

// serveTCP starts a wire server on a loopback listener and returns its
// address.
func serveTCP(t testing.TB) string {
	t.Helper()
	return serveSrv(t, testServer(t))
}

// serveSrv serves srv on a loopback listener closed at test end.
func serveSrv(t testing.TB, srv *server.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go ServeWith(l, &Handler{Srv: srv}, ServeOpts{})
	return l.Addr().String()
}

func TestMuxNegotiation(t *testing.T) {
	addr := serveTCP(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if extra := tp.HelloExtra(); extra != nil {
		t.Fatalf("stand-alone server attached %d bytes to its HELLO ack", len(extra))
	}
	c := NewClient(tp)
	ids, _, err := c.QueryCtx(context.Background(), "lung")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("Query over mux = %v", ids)
	}
}

func TestMuxConcurrentInFlight(t *testing.T) {
	addr := serveTCP(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()

	// Many goroutines hammer the one connection; every reply must match
	// its request (correlation ids, not arrival order, route responses).
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 3 {
				case 0:
					ids, _, err := c.QueryCtx(context.Background(), "lung")
					if err == nil && (len(ids) != 1 || ids[0] != 1) {
						err = fmt.Errorf("query = %v", ids)
					}
					if err != nil {
						errs <- err
						return
					}
				case 1:
					d, _, err := c.DescriptorCtx(context.Background(), 2)
					if err == nil && d.Title != "heart" {
						err = fmt.Errorf("descriptor = %+v", d)
					}
					if err != nil {
						errs <- err
						return
					}
				default:
					m, _, err := miniatureOf(c, 3)
					if err == nil && m.PopCount() == 0 {
						err = fmt.Errorf("blank miniature")
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMuxOutOfOrderWait(t *testing.T) {
	addr := serveTCP(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()

	// Start three calls, wait for them in reverse order: each must still
	// get its own response.
	a := c.StartMiniatures(context.Background(), []object.ID{1})
	b := c.StartMiniatures(context.Background(), []object.ID{2})
	d := c.StartMiniatures(context.Background(), []object.ID{3})
	for _, pm := range []MiniatureBatch{d, b, a} {
		res, _, err := pm.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || !res[0].OK {
			t.Fatalf("batch result = %+v", res)
		}
	}
}

// scriptedListener hands its first accepted connections to the queued
// scripts (each plays a misbehaving server on the raw connection) and every
// later one to whoever called Accept — a real ServeWith in these tests.
type scriptedListener struct {
	net.Listener
	scripts chan func(net.Conn)
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		select {
		case script := <-l.scripts:
			go func() {
				defer conn.Close()
				if _, err := ReadFrame(conn); err == nil { // the client's HELLO
					script(conn)
				}
			}()
		default:
			return conn, nil
		}
	}
}

// damagedHelloAcks are the ways a HELLO acknowledgement can be unusable.
var damagedHelloAcks = []struct {
	name string
	ack  func(net.Conn)
}{
	{"error-frame", func(c net.Conn) { WriteFrame(c, errResp(errors.New("wire: unknown op 10"))) }},
	{"cut-mid-frame", func(c net.Conn) { c.Write([]byte{0, 0, 0, 17, statusOK, 0, 0}) }},
	{"short-payload", func(c net.Conn) { WriteFrame(c, okResp(0, []byte{0, 0})) }},
	{"other-version", func(c net.Conn) { WriteFrame(c, okResp(0, appendU32(nil, protocolVersion-1))) }},
}

// TestDialMuxRejectsDamagedHelloAck: a HELLO that is not acknowledged
// cleanly fails the dial — the client never guesses a framing the server
// may not share — and the failure is classified so a reconnecting client
// dials again.
func TestDialMuxRejectsDamagedHelloAck(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &scriptedListener{Listener: inner, scripts: make(chan func(net.Conn), len(damagedHelloAcks))}
	defer l.Close()
	go ServeWith(l, &Handler{Srv: testServer(t)}, ServeOpts{})
	addr := l.Addr().String()

	for _, tc := range damagedHelloAcks {
		l.scripts <- tc.ack
		tp, err := DialMux(addr)
		if err == nil {
			tp.Close()
			t.Fatalf("%s: DialMux accepted the ack", tc.name)
		}
		if !NeedsReconnect(err) || !IsRetryable(err) {
			t.Fatalf("%s: %v classified reconnect=%v retryable=%v", tc.name, err, NeedsReconnect(err), IsRetryable(err))
		}
	}

	// A client whose connection died redials through every damaged ack and
	// settles on the first clean one.
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: len(damagedHelloAcks) + 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
	dials := 0
	c.EnableReconnect(func() (Transport, error) { dials++; return DialMux(addr) })
	for _, tc := range damagedHelloAcks {
		l.scripts <- tc.ack
	}
	tp.Close()
	if ids, _, err := c.ListCtx(context.Background()); err != nil || len(ids) != 3 {
		t.Fatalf("List across damaged redials = %v, %v", ids, err)
	}
	if dials != len(damagedHelloAcks)+1 || c.Reconnects() != 1 {
		t.Fatalf("%d dials, %d reconnects; want %d and 1", dials, c.Reconnects(), len(damagedHelloAcks)+1)
	}
}

// tapListener hands every accepted connection to the test as well, so the
// test can end it from the server's side.
type tapListener struct {
	net.Listener
	accepted chan net.Conn
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- c
	}
	return c, err
}

// wrappedTransport decorates a transport the way faults.Transport does: by
// field, reachable through Unwrap.
type wrappedTransport struct{ Transport }

func (w wrappedTransport) Unwrap() Transport { return w.Transport }

// TestReconnectsCountsObservedDeath: the counter a session polls moves when
// the read loop sees the connection end — with no call in flight and before
// any redial — also through a decorator, and the redial that follows does
// not count the same loss twice.
func TestReconnectsCountsObservedDeath(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &tapListener{Listener: inner, accepted: make(chan net.Conn, 4)}
	defer l.Close()
	go ServeWith(l, &Handler{Srv: testServer(t)}, ServeOpts{})
	dials := 0
	dial := func() (Transport, error) {
		dials++
		tp, err := DialMux(l.Addr().String())
		if err != nil {
			return nil, err
		}
		return wrappedTransport{tp}, nil
	}
	tp, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()
	c.EnableReconnect(dial)
	if _, _, err := c.ListCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := c.Reconnects(); n != 0 {
		t.Fatalf("healthy connection: Reconnects = %d", n)
	}

	(<-l.accepted).Close() // the server goes away; the client is idle
	for deadline := time.Now().Add(5 * time.Second); c.Reconnects() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("connection death never moved the counter")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if dials != 1 || c.Reconnects() != 1 {
		t.Fatalf("after the death: %d dials, Reconnects = %d; want the first dial only and 1", dials, c.Reconnects())
	}

	if ids, _, err := c.ListCtx(context.Background()); err != nil || len(ids) != 3 {
		t.Fatalf("List across the redial = %v, %v", ids, err)
	}
	if dials != 2 || c.Reconnects() != 1 {
		t.Fatalf("after the redial: %d dials, Reconnects = %d; want 2 and still 1", dials, c.Reconnects())
	}

	if n := NewClient(&LocalTransport{H: &Handler{Srv: testServer(t)}}).Reconnects(); n != 0 {
		t.Fatalf("in-process transport: Reconnects = %d", n)
	}
}

// TestServeRequiresHello: the server speaks mux framing only after a HELLO
// for the one protocol version; any other opening frame gets an ordinary
// error frame and a closed connection, and the refusal is logged in plain
// text (the log function formats printf-style: no verb may go unrendered).
func TestServeRequiresHello(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	logged := make(chan string, 1)
	go ServeWith(l, &Handler{Srv: testServer(t)}, ServeOpts{ErrorLog: func(err error) { logged <- err.Error() }})
	addr := l.Addr().String()
	wantLog := func(name, want string) {
		t.Helper()
		select {
		case got := <-logged:
			if !strings.Contains(got, want) || strings.Contains(got, "%!") {
				t.Fatalf("%s: logged %q, want it to say %q", name, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: nothing logged", name)
		}
	}
	for _, tc := range []struct {
		name, want string
		first      []byte
	}{
		{"plain-request", "must open with HELLO", []byte{OpList}},
		{"mux-framed-request", "must open with HELLO", append(appendU32(nil, 1), OpList)},
		{"short-hello", "must open with HELLO", []byte{OpHello, 0, 0}},
		{"older-version", "unsupported protocol version 2", appendU32([]byte{OpHello}, 2)},
		{"newer-version", "unsupported protocol version 4", appendU32([]byte{OpHello}, 4)},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := WriteFrame(conn, tc.first); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("%s: no answer: %v", tc.name, err)
		}
		if _, _, err := parseResponse(resp); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: answer %v, want an error frame naming %q", tc.name, err, tc.want)
		}
		if _, err := ReadFrame(conn); err != io.EOF {
			t.Fatalf("%s: connection left open (read: %v)", tc.name, err)
		}
		conn.Close()
		wantLog(tc.name, fmt.Sprintf("refused: first frame is not a HELLO for protocol version %d", protocolVersion))
	}
	// A first frame cut short is a read error, logged with its cause.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0, 0, 0, 9, OpHello})
	conn.Close()
	wantLog("truncated-hello", "read: unexpected EOF")
}

// TestHelloMidConnectionIsUnknownOp: HELLO is answered by the opening
// exchange alone. Sent again on an open connection it is a stray opcode —
// an error frame on its own correlation id, the connection unharmed.
func TestHelloMidConnectionIsUnknownOp(t *testing.T) {
	tp, err := DialMux(serveTCP(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()
	resp, err := tp.RoundTrip(appendU32([]byte{OpHello}, protocolVersion))
	if err != nil {
		t.Fatalf("mid-connection HELLO broke the transport: %v", err)
	}
	if _, _, err := parseResponse(resp); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("mid-connection HELLO answered %v, want an unknown-op error frame", err)
	}
	if ids, _, err := c.QueryCtx(context.Background(), "lung"); err != nil || len(ids) != 1 {
		t.Fatalf("connection unusable after a stray HELLO: ids=%v err=%v", ids, err)
	}
}

// stalledServer acknowledges HELLO on accept, then swallows every request
// without replying. stop closes all accepted connections.
func stalledServer(t testing.TB) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				req, err := ReadFrame(conn)
				if err != nil || len(req) == 0 || req[0] != OpHello {
					conn.Close()
					return
				}
				WriteFrame(conn, okResp(0, appendU32(nil, protocolVersion)))
				for {
					if _, err := ReadFrame(conn); err != nil {
						return
					}
					// Swallow the request; never respond.
				}
			}()
		}
	}()
	stop = func() {
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}
	t.Cleanup(stop)
	return l.Addr().String(), stop
}

func TestMuxCallTimeout(t *testing.T) {
	addr, _ := stalledServer(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	tp.SetCallTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err = tp.RoundTrip([]byte{OpList})
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("stalled call error = %v, want ErrCallTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The timed-out call must not leak its pending-table slot.
	if n := tp.d.pendingLen(); n != 0 {
		t.Fatalf("%d pending calls leaked after timeout", n)
	}
}

func TestMuxConnectionDeathFailsPending(t *testing.T) {
	addr, stop := stalledServer(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	// Several calls in flight when the server dies: all must fail with an
	// error wrapping ErrTransportClosed, and later calls must fail fast.
	var pends []Pending
	for i := 0; i < 4; i++ {
		pends = append(pends, tp.Start([]byte{OpList}))
	}
	stop()
	for i, p := range pends {
		if _, err := p.Wait(); !errors.Is(err, ErrTransportClosed) {
			t.Fatalf("pending %d after death: %v, want ErrTransportClosed", i, err)
		}
	}
	if _, err := tp.Start([]byte{OpList}).Wait(); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("post-death call error = %v", err)
	}
}

// TestMuxCallTimeoutOffClearsWriteDeadline: a call made under a timeout arms
// the connection's write deadline; switching the timeout off must disarm it,
// or the first call after the old deadline passes fails on a healthy
// connection.
func TestMuxCallTimeoutOffClearsWriteDeadline(t *testing.T) {
	tp, err := DialMux(serveTCP(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	tp.SetCallTimeout(50 * time.Millisecond)
	if _, err := tp.RoundTrip([]byte{OpList}); err != nil {
		t.Fatal(err)
	}
	tp.SetCallTimeout(0)
	time.Sleep(120 * time.Millisecond)
	if _, err := tp.RoundTrip([]byte{OpList}); err != nil {
		t.Fatalf("call after the timeout was switched off: %v", err)
	}
}

// TestTCPTimeoutAgainstDeadServer: a server that acknowledges HELLO and then
// stops reading altogether must fail the client's writes by deadline once
// the socket buffers fill, not hang them forever.
func TestTCPTimeoutAgainstDeadServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	hung := make(chan struct{})
	defer close(hung)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := ReadFrame(conn); err != nil {
			return
		}
		WriteFrame(conn, okResp(0, appendU32(nil, protocolVersion)))
		<-hung // never read again
	}()
	tp, err := DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	tp.SetCallTimeout(100 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		big := make([]byte, 1<<20)
		for i := 0; i < 256; i++ { // far more than loopback buffers hold
			if p, failed := tp.Start(big).(errPending); failed {
				done <- p.err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() || !NeedsReconnect(err) {
			t.Fatalf("dead-server write error = %v, want a timeout needing reconnect", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("write hung against a server that stopped reading")
	}
}

// TestLocalTransportBatchWindow is the satellite fix for the simulated
// link: overlapping exchanges share one latency window, sequential
// exchanges each pay their own.
func TestLocalTransportBatchWindow(t *testing.T) {
	lt := &LocalTransport{H: &Handler{Srv: testServer(t)}, Latency: 10 * time.Millisecond}
	req := []byte{OpList}

	// Two overlapping exchanges: latency charged once.
	a := lt.Start(req)
	b := lt.Start(req)
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := lt.Stats().LinkTime; got != 2*lt.Latency {
		t.Fatalf("overlapping link time = %v, want %v", got, 2*lt.Latency)
	}

	// Two sequential exchanges: latency charged per round trip.
	lt.ResetStats()
	if _, err := lt.RoundTrip(req); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.RoundTrip(req); err != nil {
		t.Fatal(err)
	}
	if got := lt.Stats().LinkTime; got != 4*lt.Latency {
		t.Fatalf("sequential link time = %v, want %v", got, 4*lt.Latency)
	}

	// Wait is idempotent: a second Wait must not reopen the window.
	lt.ResetStats()
	p := lt.Start(req)
	p.Wait()
	p.Wait()
	if _, err := lt.RoundTrip(req); err != nil {
		t.Fatal(err)
	}
	if got := lt.Stats().LinkTime; got != 4*lt.Latency {
		t.Fatalf("post-idempotent link time = %v, want %v", got, 4*lt.Latency)
	}
}

func TestMiniaturesBatch(t *testing.T) {
	c, lt := localClient(t)
	lt.ResetStats()
	res, _, err := c.MiniaturesCtx(context.Background(), []object.ID{3, 42, 1})
	if err != nil {
		t.Fatal(err)
	}
	if lt.Stats().RoundTrips != 1 {
		t.Fatalf("batch took %d round trips", lt.Stats().RoundTrips)
	}
	if len(res) != 3 {
		t.Fatalf("batch size = %d", len(res))
	}
	if res[0].ID != 3 || !res[0].OK || res[0].Mini.PopCount() == 0 {
		t.Fatalf("entry 0 = %+v", res[0])
	}
	if res[0].Mode != object.Audio {
		t.Fatalf("entry 0 mode = %v, want Audio", res[0].Mode)
	}
	if res[1].ID != 42 || res[1].OK {
		t.Fatalf("missing object entry = %+v", res[1])
	}
	if !res[2].OK || res[2].Mode != object.Visual {
		t.Fatalf("entry 2 = %+v", res[2])
	}

	// The batch must agree with the single-miniature call bit for bit.
	single, _, err := miniatureOf(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if single.PopCount() != res[0].Mini.PopCount() {
		t.Fatalf("batched miniature diverges from single fetch")
	}

	if _, _, err := c.MiniaturesCtx(context.Background(), nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestDemuxHostileFrames(t *testing.T) {
	d := newDemux()
	ch, err := d.register(7)
	if err != nil {
		t.Fatal(err)
	}
	// Short, unknown-id and duplicate deliveries must be dropped.
	if d.deliver(nil) || d.deliver([]byte{1, 2}) {
		t.Fatal("short frame delivered")
	}
	if d.deliver(appendU32(nil, 99)) {
		t.Fatal("unknown id delivered")
	}
	if !d.deliver(append(appendU32(nil, 7), 0xAB)) {
		t.Fatal("valid frame not delivered")
	}
	if d.deliver(append(appendU32(nil, 7), 0xCD)) {
		t.Fatal("duplicate id delivered twice")
	}
	r := <-ch
	if r.err != nil || len(r.resp) != 1 || r.resp[0] != 0xAB {
		t.Fatalf("delivered = %+v", r)
	}
	if _, err := d.register(7); err != nil {
		t.Fatal("id reuse after completion should be allowed")
	}
	d.failAll(ErrTransportClosed)
	if d.pendingLen() != 0 {
		t.Fatal("failAll left pending calls")
	}
	if _, err := d.register(8); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("register after failAll = %v", err)
	}
}

func BenchmarkMuxConcurrentMiniatures(b *testing.B) {
	addr := serveTCP(b)
	tp, err := DialMux(addr)
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()
	if _, _, err := miniatureOf(c, 3); err != nil { // warm the block cache
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := miniatureOf(c, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMuxBatchedMiniatures(b *testing.B) {
	c, _ := localClient(b)
	ids := []object.ID{1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.MiniaturesCtx(context.Background(), ids); err != nil {
			b.Fatal(err)
		}
	}
}
