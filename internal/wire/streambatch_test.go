package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"minos/internal/archiver"
	"minos/internal/disk"
	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/pool"
	"minos/internal/server"
	"minos/internal/voice"
)

// --- harness: a loopback connection that counts and records both ways ---

// countingConn counts Write calls and records every byte written, and lets
// a test wait for its byte total — the event the batching tests synchronise
// on instead of sleeping.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	cond   *sync.Cond
	writes int
	sent   []byte
	late   bool // waitSent's deadline passed
}

func newCountingConn(c net.Conn) *countingConn {
	cc := &countingConn{Conn: c}
	cc.cond = sync.NewCond(&cc.mu)
	return cc
}

// Write records p before passing it on, so that whatever the peer has
// received is already in the record when a test looks.
func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.sent = append(c.sent, p...)
	c.mu.Unlock()
	c.cond.Broadcast()
	return c.Conn.Write(p)
}

// snapshot returns the Write count and a copy of the bytes written so far.
func (c *countingConn) snapshot() (writes int, sent []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, slices.Clone(c.sent)
}

// waitSent blocks until at least n bytes have been written.
func (c *countingConn) waitSent(t testing.TB, n int) {
	t.Helper()
	timer := time.AfterFunc(10*time.Second, func() {
		c.mu.Lock()
		c.late = true
		c.mu.Unlock()
		c.cond.Broadcast()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.sent) < n {
		if c.late {
			t.Fatalf("connection wrote %d bytes, still waiting for %d", len(c.sent), n)
		}
		c.cond.Wait()
	}
}

// countingListener wraps every accepted connection in a countingConn and
// hands it to the test.
type countingListener struct {
	net.Listener
	conns chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := newCountingConn(c)
	l.conns <- cc
	return cc, nil
}

// countedMux serves srv on loopback TCP and dials it, both ends wrapped:
// cli records client→server traffic, srvc server→client.
func countedMux(t testing.TB, srv *server.Server) (tp *MuxTransport, cli, srvc *countingConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: l, conns: make(chan *countingConn, 1)}
	t.Cleanup(func() { l.Close() })
	go ServeWith(cl, &Handler{Srv: srv}, ServeOpts{})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli = newCountingConn(conn)
	tp, err = openMux(cli)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tp.Close() })
	return tp, cli, <-cl.conns
}

// splitFrames cuts a recorded byte stream into length-prefixed frames
// (prefix stripped); the stream must end on a frame boundary.
func splitFrames(t testing.TB, b []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			t.Fatalf("recorded stream ends inside a length prefix (%d bytes left)", len(b))
		}
		n := int(binary.BigEndian.Uint32(b))
		if len(b) < 4+n {
			t.Fatalf("recorded stream ends inside a %d-byte frame (%d bytes left)", n, len(b)-4)
		}
		out = append(out, b[4:4+n])
		b = b[4+n:]
	}
	return out
}

// refStreamFrame is the test's own per-frame encoder, built from the unary
// frame helpers rather than the sink's staging code: one frame, one buffer.
func refStreamFrame(id uint32, status byte, dev time.Duration, payload []byte) []byte {
	body := appendU32(appendU64([]byte{status}, uint64(dev)), uint32(len(payload)))
	return slices.Clone(muxFrame(id, append(body, payload...)))
}

// creditFrames extracts the credit grants from recorded client→server
// traffic (the HELLO, a bare frame, is skipped by its length).
func creditFrames(t testing.TB, sent []byte) (grants []int) {
	t.Helper()
	for _, f := range splitFrames(t, sent) {
		if len(f) == 9 && f[4] == OpStreamCredit {
			grants = append(grants, int(binary.BigEndian.Uint32(f[5:])))
		}
	}
	return grants
}

// queued reports how many frames the read loop has handed the stream that
// Recv has not popped yet.
func queued(sc StreamConn) int {
	s := sc.(*muxStream)
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q) - s.head
}

// waitQueued blocks until n frames sit in the stream's queue: the consumer
// of the write-count test lets the window fill before each Recv, so no Recv
// ever finds the queue empty and the credit schedule is the same every run.
func waitQueued(t testing.TB, sc StreamConn, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for queued(sc) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames queued, still waiting for %d", queued(sc), n)
		}
		runtime.Gosched()
	}
}

// checkNoStreamLeaks is the shared tail of the teardown tests.
func checkNoStreamLeaks(t *testing.T, tp *MuxTransport, baseline int) {
	t.Helper()
	if n := tp.OpenStreams(); n != 0 {
		t.Fatalf("%d client stream slots leaked", n)
	}
	if n := tp.PendingCalls(); n != 0 {
		t.Fatalf("%d pending calls leaked", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d never returned to baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- deterministic evidence: writes per direction, credit accounting ---

// TestStreamWriteCounts streams one part to a consumer that lets the window
// fill before each Recv and counts Write calls on both ends of the
// connection. Before batching each chunk cost one Write each way; now a
// 16-chunk window costs the server at most one Write per four chunks (a
// half-window credit buys eight chunks: seven fill the staging buffer, the
// eighth goes out when the producer parks) and the client one credit frame
// per eight.
func TestStreamWriteCounts(t *testing.T) {
	srv, id := voiceServer(t)
	info, want := voiceGroundTruth(t, srv, id)
	tp, cli, srvc := countedMux(t, srv)
	const window = 16 * StreamChunkBytes
	chunks := int((info.Bytes + StreamChunkBytes - 1) / StreamChunkBytes)
	if chunks < 32 {
		t.Fatalf("part is only %d chunks; too short to count batches", chunks)
	}
	srvWrites0, _ := srvc.snapshot() // the HELLO ack
	cliWrites0, _ := cli.snapshot()  // the HELLO

	_, sc, err := NewClient(tp).VoiceStreamCtx(context.Background(), id, 0, window)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	granted := 0 // bytes the stream has put on the wire as credit, by its own rule
	for n := 0; n < chunks; n++ {
		// Everything the server may send under the credit issued so far.
		allowed := min(chunks, (window+granted)/StreamChunkBytes)
		waitQueued(t, sc, allowed-n)
		ch, err := sc.Recv()
		if err != nil {
			t.Fatalf("chunk %d: %v", n, err)
		}
		got = append(got, ch.Data...)
		sc.Grant(len(ch.Data))
		if owed := len(got) - granted; 2*owed >= window {
			granted += owed
		}
	}
	if _, err := sc.Recv(); err != io.EOF {
		t.Fatalf("after %d chunks: %v, want EOF", chunks, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed bytes diverge from the archive")
	}

	srvWrites, _ := srvc.snapshot()
	cliWrites, cliSent := cli.snapshot()
	// Header, first data frame and the tail each cost a Write of their own.
	if w := srvWrites - srvWrites0; 4*(w-3) > chunks {
		t.Fatalf("server wrote %d times for %d chunks, want at most 1 per 4 chunks (+3)", w, chunks)
	}
	grants := creditFrames(t, cliSent)
	if w := cliWrites - cliWrites0 - 1; w != len(grants) { // -1: the open request
		t.Fatalf("client wrote %d frames after the open, %d of them credit", w, len(grants))
	}
	// The last Recv waits for the end frame with the tail still owed.
	if 4*(len(grants)-1) > chunks {
		t.Fatalf("client sent %d credit frames for %d chunks, want at most 1 per 4 chunks (+1)", len(grants), chunks)
	}
	t.Logf("%d chunks: %d server writes, %d credit frames", chunks, srvWrites-srvWrites0, len(grants))
}

// grantCounter totals what a consumer hands to Grant.
type grantCounter struct {
	StreamConn
	total int
}

func (g *grantCounter) Grant(n int) {
	g.total += n
	g.StreamConn.Grant(n)
}

// TestStreamCreditAccounting: whatever the consumer's pacing, credit frames
// never outnumber chunks (+1), every byte handed to Grant is granted on the
// wire exactly once (or still owed when the stream ends), and the server's
// byte stream is the concatenation of well-formed frames — re-encoding each
// one alone reproduces it bit for bit — carrying the archive's bytes at
// contiguous offsets, the very values Recv returned.
func TestStreamCreditAccounting(t *testing.T) {
	srv, id := voiceServer(t)
	_, want := voiceGroundTruth(t, srv, id)
	perChunk := func(sc StreamConn, n, _ int) { sc.Grant(n) }
	acc := 0
	for _, tc := range []struct {
		name   string
		window int
		grant  func(sc StreamConn, n, i int) // the consumer's policy after chunk i of n bytes
	}{
		{"window-one-chunk", StreamChunkBytes, perChunk},
		{"free-running", 16 * StreamChunkBytes, perChunk},
		{"grant-in-halves", 4 * StreamChunkBytes, func(sc StreamConn, n, _ int) { sc.Grant(n / 2); sc.Grant(n - n/2) }},
		{"grant-every-third", 8 * StreamChunkBytes, func(sc StreamConn, n, i int) {
			if acc += n; i%3 == 2 {
				sc.Grant(acc)
				acc = 0
			}
		}},
		{"yielding", 16 * StreamChunkBytes, func(sc StreamConn, n, _ int) { runtime.Gosched(); sc.Grant(n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp, cli, srvc := countedMux(t, srv)
			_, ack := srvc.snapshot()
			_, raw, err := NewClient(tp).VoiceStreamCtx(context.Background(), id, 0, tc.window)
			if err != nil {
				t.Fatal(err)
			}
			sc := &grantCounter{StreamConn: raw}
			type seen struct {
				off uint64
				dev time.Duration
			}
			var got []byte
			var chunks []seen
			for {
				ch, err := sc.Recv()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("chunk %d: %v", len(chunks), err)
				}
				got = append(got, ch.Data...)
				chunks = append(chunks, seen{ch.Offset, ch.Dev})
				tc.grant(sc, len(ch.Data), len(chunks)-1)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("streamed bytes diverge from the archive")
			}

			_, cliSent := cli.snapshot()
			grants := creditFrames(t, cliSent)
			if len(grants) > len(chunks)+1 {
				t.Fatalf("%d credit frames for %d chunks", len(grants), len(chunks))
			}
			sum := 0
			for _, g := range grants {
				sum += g
			}
			st := raw.(*muxStream)
			st.mu.Lock()
			owed := st.owed
			st.mu.Unlock()
			if sum+owed != sc.total {
				t.Fatalf("%d granted on the wire + %d still owed, consumer granted %d", sum, owed, sc.total)
			}

			// The server's side, frame by frame.
			_, all := srvc.snapshot()
			var rebuilt []byte
			var next uint64
			data := 0
			for i, f := range splitFrames(t, all[len(ack):]) {
				sid := binary.BigEndian.Uint32(f)
				status, dev, payload, err := parseStreamFrame(f[4:])
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				rebuilt = append(rebuilt, refStreamFrame(sid, status, dev, payload)...)
				if status != statusStreamData {
					continue
				}
				off, chunk, err := parseStreamData(payload)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if off != next || !bytes.Equal(chunk, want[off:off+uint64(len(chunk))]) {
					t.Fatalf("frame %d: offset %d (want %d) or payload diverges", i, off, next)
				}
				if c := chunks[data]; c.off != off || c.dev != dev {
					t.Fatalf("frame %d carries (%d, %v), Recv %d returned (%d, %v)", i, off, dev, data, c.off, c.dev)
				}
				next += uint64(len(chunk))
				data++
			}
			if data != len(chunks) || int(next) != len(want) {
				t.Fatalf("%d data frames / %d bytes on the wire, %d chunks / %d bytes received", data, next, len(chunks), len(want))
			}
			if !bytes.Equal(rebuilt, all[len(ack):]) {
				t.Fatal("server byte stream is not the concatenation of its frames' own encodings")
			}
		})
	}
}

// --- flow control over real loopback TCP ---

// TestStreamSmallWindows: the stream completes with the window equal to one
// chunk and with windows smaller than two — every grant is at least half of
// those, so the credit goes out at once and the producer is never stranded.
func TestStreamSmallWindows(t *testing.T) {
	srv, id := voiceServer(t)
	_, want := voiceGroundTruth(t, srv, id)
	tp, err := DialMux(serveSrv(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()
	for _, window := range []int{StreamChunkBytes, StreamChunkBytes + 1, 6000, 2*StreamChunkBytes - 1} {
		_, sc, err := c.VoiceStreamCtx(context.Background(), id, 0, window)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if got := drainStream(t, sc, 0); !bytes.Equal(got, want) {
			t.Fatalf("window %d: streamed %d bytes, want %d", window, len(got), len(want))
		}
	}
	if tp.OpenStreams() != 0 || tp.PendingCalls() != 0 {
		t.Fatalf("leaked %d streams, %d calls", tp.OpenStreams(), tp.PendingCalls())
	}
}

// TestMiniatureStreamWindowOfLargestPass: passes differ in size, and a
// window that holds exactly the largest leaves the producer parked after
// every pass with a remainder too small for the next. Each grant is more
// than half of such a window, so it goes out at once and the stream runs
// pass by pass to the end.
func TestMiniatureStreamWindowOfLargestPass(t *testing.T) {
	srv := testServer(t)
	bm := srv.Miniature(3)
	largest := 0
	for p := 0; p < img.ProgressivePasses; p++ {
		largest = max(largest, img.PassSize(bm.W, bm.H, p))
	}
	tp, cli, _ := countedMux(t, srv)
	info, sc, err := NewClient(tp).MiniatureStreamCtx(context.Background(), 3, 0, largest)
	if err != nil {
		t.Fatal(err)
	}
	prog := img.NewProgressive(info.W, info.H)
	for {
		ch, err := sc.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pass, _ := img.PassAtOffset(info.W, info.H, ch.Offset)
		if err := prog.Apply(pass, ch.Data); err != nil {
			t.Fatal(err)
		}
		sc.Grant(len(ch.Data))
	}
	if !prog.Complete() || prog.Bitmap().Hash() != bm.Hash() {
		t.Fatal("miniature incomplete or diverges under a one-pass window")
	}
	_, sent := cli.snapshot()
	if grants := creditFrames(t, sent); len(grants) > img.ProgressivePasses+1 {
		t.Fatalf("%d credit frames for %d passes", len(grants), img.ProgressivePasses)
	}
}

// TestStreamHeldConsumerCreditBeforeWait holds a consumer on a channel
// between Recvs. With a three-chunk window it drains the three chunks the
// producer could send, grants one of them back — less than half a window,
// so nothing is written — and is then let into Recv: the owed credit must
// reach the wire before Recv waits, or producer (parked on an empty window)
// and consumer (parked on an empty queue) would wait on each other forever.
func TestStreamHeldConsumerCreditBeforeWait(t *testing.T) {
	srv, id := voiceServer(t)
	tp, cli, srvc := countedMux(t, srv)
	const window = 3 * StreamChunkBytes
	_, ack := srvc.snapshot()
	_, sc, err := NewClient(tp).VoiceStreamCtx(context.Background(), id, 0, window)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	steps := make(chan func())
	stepped := make(chan struct{})
	go func() { // the consumer: does one thing each time the test lets it
		for f := range steps {
			f()
			stepped <- struct{}{}
		}
	}()
	defer close(steps)
	step := func(f func()) { steps <- f; <-stepped }
	recv := func() (ch StreamChunk) {
		step(func() {
			var err error
			if ch, err = sc.Recv(); err != nil {
				t.Errorf("Recv: %v", err)
			}
		})
		return ch
	}

	// The producer fills the window and parks: header + three data frames.
	hdrLen := streamFrameLen(12)
	frameLen := streamFrameLen(8 + StreamChunkBytes)
	srvc.waitSent(t, len(ack)+hdrLen+3*frameLen)
	for i := 0; i < 3; i++ {
		if ch := recv(); ch.Offset != uint64(i*StreamChunkBytes) {
			t.Fatalf("chunk %d at offset %d", i, ch.Offset)
		}
	}
	writes0, _ := cli.snapshot()
	step(func() { sc.Grant(StreamChunkBytes) })
	if w, _ := cli.snapshot(); w != writes0 {
		t.Fatalf("a grant under half a window wrote %d frames", w-writes0)
	}
	if _, all := srvc.snapshot(); len(all) != len(ack)+hdrLen+3*frameLen {
		t.Fatalf("producer sent past its window: %d bytes", len(all))
	}
	// Let the consumer into Recv on an empty queue.
	if ch := recv(); ch.Offset != 3*StreamChunkBytes || len(ch.Data) != StreamChunkBytes {
		t.Fatalf("fourth chunk: offset %d, %d bytes", ch.Offset, len(ch.Data))
	}
	_, sent := cli.snapshot()
	if grants := creditFrames(t, sent); len(grants) != 1 || grants[0] != StreamChunkBytes {
		t.Fatalf("credit frames %v, want the one owed chunk", grants)
	}
}

// TestStreamTeardownWithStagedFrames: a cancel mid-batch and a connection
// death both land while the sink holds staged frames (a 64-chunk window is
// more than two staging buffers); neither may leak a goroutine, a pending
// call or a stream slot on either side.
func TestStreamTeardownWithStagedFrames(t *testing.T) {
	srv, id := voiceServer(t)
	addr := serveSrv(t, srv)
	settle, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer settle.Close()
	if _, _, err := miniatureOf(NewClient(settle), 3); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	const window = 64 * StreamChunkBytes

	for i := 0; i < raceIters(t, 16); i++ {
		tp, err := DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(tp)
		_, sc, err := c.VoiceStreamCtx(context.Background(), id, 0, window)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= i%5; k++ { // somewhere inside the first batches
			ch, err := sc.Recv()
			if err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			sc.Grant(len(ch.Data))
		}
		if i%2 == 0 {
			sc.Close() // cancel: the producer drops what it staged
			if _, _, err := miniatureOf(c, 3); err != nil {
				t.Fatalf("iter %d: call after cancel: %v", i, err)
			}
			if n := tp.OpenStreams(); n != 0 {
				t.Fatalf("iter %d: %d stream slots after cancel", i, n)
			}
			tp.Close()
		} else {
			tp.Close() // connection death under the stream
			for {
				if _, err := sc.Recv(); err != nil {
					if !errors.Is(err, ErrTransportClosed) {
						t.Fatalf("iter %d: Recv after connection death: %v", i, err)
					}
					break
				}
			}
			sc.Close()
		}
		checkNoStreamLeaks(t, tp, baseline)
	}
}

// TestStreamsShareConnection: two voice streams and goroutines hammering
// batched miniature calls share one connection; every byte and every batch
// must come through, whichever frames share a Write or a read. Run with
// -race -count=10.
func TestStreamsShareConnection(t *testing.T) {
	srv, id := voiceServer(t)
	_, want := voiceGroundTruth(t, srv, id)
	tp, err := DialMux(serveSrv(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 6)
	for _, window := range []int{2 * StreamChunkBytes, 16 * StreamChunkBytes} {
		wg.Add(1)
		go func(window int) {
			defer wg.Done()
			_, sc, err := c.VoiceStreamCtx(context.Background(), id, 0, window)
			if err != nil {
				errc <- err
				return
			}
			defer sc.Close()
			var got []byte
			for {
				ch, err := sc.Recv()
				if err == io.EOF {
					break
				}
				if err != nil {
					errc <- fmt.Errorf("window %d at %d: %w", window, len(got), err)
					return
				}
				got = append(got, ch.Data...)
				sc.Grant(len(ch.Data))
			}
			if !bytes.Equal(got, want) {
				errc <- fmt.Errorf("window %d: streamed bytes diverge", window)
			}
		}(window)
	}
	batches := raceIters(t, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < batches; k++ {
				res, _, err := c.MiniaturesCtx(context.Background(), []object.ID{1, 2, 3})
				if err != nil || len(res) != 3 || !res[2].OK {
					errc <- fmt.Errorf("batch beside the streams: %+v, %v", res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if tp.OpenStreams() != 0 || tp.PendingCalls() != 0 {
		t.Fatalf("leaked %d streams, %d calls", tp.OpenStreams(), tp.PendingCalls())
	}
}

// writeLog records each Write as its own slice.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, slices.Clone(p))
	return len(p), nil
}

// TestStreamSinkFlushPoints drives the staged sink by hand: the header and
// the first data frame each reach the socket before the producer gets
// control back (it has not read its second chunk yet), later frames wait in
// the staging buffer until it fills, and a frame too large for the buffer
// still goes out whole.
func TestStreamSinkFlushPoints(t *testing.T) {
	var mu sync.Mutex
	var w writeLog
	st := newSrvStream()
	st.grant(1 << 30)
	sink := newMuxStreamSink(&w, &mu, 7, st)
	defer sink.release()
	chunk := bytes.Repeat([]byte{0xA5}, StreamChunkBytes)
	frame := func(off uint64, c []byte) []byte {
		return refStreamFrame(7, statusStreamData, 0, append(appendU64(nil, off), c...))
	}

	if err := sink.Header([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 1 {
		t.Fatalf("header: %d writes, want it on the wire at once", len(w.writes))
	}
	if err := sink.Data(0, chunk, 0); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 2 || !bytes.Equal(w.writes[1], frame(0, chunk)) {
		t.Fatalf("first data frame: %d writes, want it on the wire before the second chunk is read", len(w.writes))
	}
	perBatch := streamStageBytes / len(frame(0, chunk))
	for i := 1; i <= perBatch; i++ {
		if err := sink.Data(uint64(i*StreamChunkBytes), chunk, 0); err != nil {
			t.Fatal(err)
		}
		if len(w.writes) != 2 {
			t.Fatalf("frame %d written alone; the staging buffer holds %d", i, perBatch)
		}
	}
	if err := sink.Data(uint64((perBatch+1)*StreamChunkBytes), chunk, 0); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 3 || len(w.writes[2]) != perBatch*len(frame(0, chunk)) {
		t.Fatalf("full buffer: %d writes, last of %d bytes; want one write of %d whole frames", len(w.writes), len(w.writes[len(w.writes)-1]), perBatch)
	}
	big := bytes.Repeat([]byte{0x5A}, 2*streamStageBytes)
	if err := sink.Data(1<<20, big, 0); err != nil {
		t.Fatal(err)
	}
	if err := sink.end([]byte{0}); err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, p := range w.writes[3:] {
		all = append(all, p...)
	}
	wantTail := slices.Concat(frame(uint64((perBatch+1)*StreamChunkBytes), chunk), frame(1<<20, big),
		refStreamFrame(7, statusStreamEnd, 0, []byte{0}))
	if !bytes.Equal(all, wantTail) {
		t.Fatalf("tail of %d bytes in %d writes diverges from the per-frame encoding (%d bytes)", len(all), len(w.writes)-3, len(wantTail))
	}
}

// --- ownership of pooled stream frames ---

// TestStreamFrameOwnership pins who may recycle a pooled frame: the next
// Recv recycles the one behind the previous chunk; Close from another
// goroutine recycles frames still queued but leaves the chunk the consumer
// is reading to the garbage collector; a frame pushed after Close is
// recycled on the spot. Run with -race.
func TestStreamFrameOwnership(t *testing.T) {
	client, peer := net.Pipe()
	defer client.Close()
	defer peer.Close()
	go io.Copy(io.Discard, peer) // swallow credit and cancel frames
	m := &MuxTransport{conn: client, d: newDemux()}
	st := &muxStream{m: m, id: 1, notify: make(chan struct{}, 1), window: 1 << 20}
	if err := m.d.registerStream(st.id, st); err != nil {
		t.Fatal(err)
	}
	// pooledFrame builds a data frame as the read loop would: in a pooled
	// buffer, correlation id in front.
	pooledFrame := func(off uint64, fill byte) []byte {
		f := refStreamFrame(st.id, statusStreamData, 0, append(appendU64(nil, off), bytes.Repeat([]byte{fill}, StreamChunkBytes)...))[4:]
		return append(pool.Bytes.Get(len(f))[:0], f...)
	}
	for i := 0; i < 3; i++ {
		if !m.d.deliver(pooledFrame(uint64(i*StreamChunkBytes), byte('a'+i))) {
			t.Fatal("frame not delivered")
		}
	}
	first, err := st.Recv()
	if err != nil {
		t.Fatal(err)
	}
	_, recycled0 := pool.Counters()
	second, err := st.Recv() // recycles the frame behind first
	if err != nil {
		t.Fatal(err)
	}
	if _, r := pool.Counters(); r != recycled0+1 {
		t.Fatalf("second Recv recycled %d buffers, want the first chunk's frame", r-recycled0)
	}
	_ = first // dead by contract: "Data is valid until the next Recv"

	// Close from another goroutine while the consumer still reads second.
	_, recycled0 = pool.Counters()
	done := make(chan struct{})
	go func() { st.Close(); close(done) }()
	for i := 0; i < 1000; i++ { // the consumer, reading on
		if second.Data[i%len(second.Data)] != 'b' {
			t.Fatal("chunk changed under the consumer")
		}
	}
	<-done
	// The queued third frame, and the staging buffer of the cancel frame
	// Close sent — not the frame behind second.
	if _, r := pool.Counters(); r != recycled0+2 {
		t.Fatalf("Close recycled %d buffers, want 2 (the queued frame, the cancel frame's buffer)", r-recycled0)
	}
	// Whatever the pool hands out next, it is not the consumer's chunk.
	var held [][]byte
	for i := 0; i < 64; i++ {
		b := pool.Bytes.Get(StreamChunkBytes + 64)
		for j := range b {
			b[j] = 0xFF
		}
		held = append(held, b)
	}
	if !bytes.Equal(second.Data, bytes.Repeat([]byte{'b'}, StreamChunkBytes)) {
		t.Fatal("Close from another goroutine recycled the chunk the consumer was reading")
	}
	runtime.KeepAlive(held)

	// A frame arriving after Close never reaches a consumer: recycled at once.
	_, recycled0 = pool.Counters()
	st.push(pooledFrame(0, 'z'))
	if _, r := pool.Counters(); r != recycled0+1 {
		t.Fatal("late frame on a closed stream was not recycled")
	}
	if _, err := st.Recv(); !errors.Is(err, errStreamClosed) {
		t.Fatalf("Recv after Close: %v", err)
	}
}

// --- allocation guards ---

// bigVoiceServer publishes one spoken object of the given PCM size behind a
// block cache of cacheBlocks blocks.
func bigVoiceServer(t testing.TB, pcmBytes, cacheBlocks int) (*server.Server, object.ID) {
	t.Helper()
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(4096))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(archiver.New(dev), server.WithCache(cacheBlocks))
	samples := make([]int16, pcmBytes/2)
	for i := range samples {
		samples[i] = int16(i * 31)
	}
	o, err := object.NewBuilder(9, "spoken", object.Audio).VoicePart(&voice.Part{Rate: 8000, Samples: samples}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish(o); err != nil {
		t.Fatal(err)
	}
	return srv, 9
}

// marginalAllocs measures heap objects per extra chunk by running a long
// and a short stream and dividing the difference: per-stream overhead
// (admission, descriptor parse, the stream's own state) cancels out.
func marginalAllocs(t *testing.T, total uint64, run func(from uint64) (chunks int)) float64 {
	t.Helper()
	measure := func(from uint64) (float64, float64) {
		chunks := run(from) // warm caches and pools
		return float64(chunks), testing.AllocsPerRun(10, func() { run(from) })
	}
	shortChunks, shortAllocs := measure((total - 1) / StreamChunkBytes * StreamChunkBytes)
	fullChunks, fullAllocs := measure(0)
	if fullChunks-shortChunks < 64 {
		t.Fatalf("stream lengths %v vs %v chunks: too close to measure marginal cost", fullChunks, shortChunks)
	}
	t.Logf("full %.0f allocs/%.0f chunks, short %.0f/%.0f", fullAllocs, fullChunks, shortAllocs, shortChunks)
	return (fullAllocs - shortAllocs) / (fullChunks - shortChunks)
}

// TestAllocStreamClientRecv: over loopback TCP with the cache warm, a
// streamed chunk costs no heap object on either side — read loop, pooled
// frame, queue, Recv, Grant, credit frame, staged sink — and a call timeout
// (which cmd/minos always sets) does not change that: the stream's one
// timer is armed only when Recv waits, and re-armed by Reset.
func TestAllocStreamClientRecv(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	srv, id := bigVoiceServer(t, 1<<20, 8192)
	info, _, err := srv.VoicePCMInfoAs(0, id)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := DialMux(serveSrv(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	tp.SetCallTimeout(30 * time.Second)
	c := NewClient(tp)
	defer c.Close()
	perChunk := marginalAllocs(t, info.Bytes, func(from uint64) (chunks int) {
		_, sc, err := c.VoiceStreamCtx(context.Background(), id, from, 16*StreamChunkBytes)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		for {
			ch, err := sc.Recv()
			if err == io.EOF {
				return chunks
			}
			if err != nil {
				t.Fatal(err)
			}
			chunks++
			sc.Grant(len(ch.Data))
		}
	})
	if perChunk > 0.02 {
		t.Fatalf("streaming over TCP allocates %.3f objects per chunk, want 0", perChunk)
	}
}

// TestAllocStreamServeColdCache: with the block cache a fraction of the
// part every chunk misses, reads the device and evicts — and still costs
// next to nothing on the heap: the device hands out its stored block, the
// full cache rewrites its oldest entry in place. What is left is the
// read-ahead goroutine a miss may start.
func TestAllocStreamServeColdCache(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	srv, id := bigVoiceServer(t, 1<<20, 64)
	info, _, err := srv.VoicePCMInfoAs(0, id)
	if err != nil {
		t.Fatal(err)
	}
	h := &Handler{Srv: srv}
	perChunk := marginalAllocs(t, info.Bytes, func(from uint64) int {
		sink := &collectSink{}
		if err := h.ServeStreamAs(0, encodeStreamOpen(OpVoiceStream, id, from, 1<<20), sink); err != nil {
			t.Fatal(err)
		}
		return sink.chunks
	})
	if perChunk > 0.1 {
		t.Fatalf("cold-cache voice streaming allocates %.3f objects per chunk, want <= 0.1", perChunk)
	}
}

// --- AppendPCMSamples ---

// appendPCMSamplesRef is the one-sample-at-a-time loop AppendPCMSamples
// replaced, kept as the reference.
func appendPCMSamplesRef(dst []int16, b []byte) []int16 {
	for i := 0; i+1 < len(b); i += 2 {
		dst = append(dst, int16(binary.LittleEndian.Uint16(b[i:])))
	}
	return dst
}

func TestAppendPCMSamples(t *testing.T) {
	ramp := make([]byte, 4096+6)
	for i := range ramp {
		ramp[i] = byte(i*37 + i>>8)
	}
	for _, tc := range []struct {
		name string
		dst  []int16
		b    []byte
		want []int16
	}{
		{"empty", nil, nil, nil},
		{"empty-onto-dst", []int16{7}, nil, []int16{7}},
		{"one-sample", nil, []byte{0x34, 0x12}, []int16{0x1234}},
		{"negative", nil, []byte{0xFF, 0xFF, 0x00, 0x80}, []int16{-1, -32768}},
		{"odd-trailing-byte-ignored", nil, []byte{1, 0, 2, 0, 9}, []int16{1, 2}},
		{"lone-byte", []int16{5}, []byte{9}, []int16{5}},
		{"append-onto-non-empty", []int16{-3, 4}, []byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 0}, []int16{-3, 4, 1, 2, 3, 4, 5}},
	} {
		if got := AppendPCMSamples(tc.dst, tc.b); !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	// Every length around the four-sample stride, against the reference loop.
	for n := 0; n <= 40; n++ {
		for _, b := range [][]byte{ramp[:n], ramp[len(ramp)-n:]} {
			dst := []int16{11, 22, 33}
			if got, want := AppendPCMSamples(dst, b), appendPCMSamplesRef(dst, b); !slices.Equal(got, want) {
				t.Fatalf("%d bytes: got %v, want %v", n, got, want)
			}
		}
	}
	if got, want := AppendPCMSamples(nil, ramp), appendPCMSamplesRef(nil, ramp); !slices.Equal(got, want) {
		t.Fatal("chunk-sized decode diverges from the per-sample loop")
	}
	// A sized dst is filled in place.
	dst := make([]int16, 0, 2048)
	if got := AppendPCMSamples(dst, ramp[:4096]); &got[0] != &dst[:1][0] {
		t.Fatal("decode reallocated a destination that had room")
	}
}
