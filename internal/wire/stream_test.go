package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"minos/internal/archiver"
	"minos/internal/disk"
	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/pool"
	"minos/internal/server"
	"minos/internal/text"
	"minos/internal/voice"
)

// voiceServer extends the standard test corpus with a spoken object whose
// PCM region spans many stream chunks.
func voiceServer(t testing.TB) (*server.Server, object.ID) {
	t.Helper()
	srv := testServer(t)
	var b strings.Builder
	b.WriteString("Spoken chapter for the streaming experiments.\n")
	for i := 0; i < 120; i++ {
		b.WriteString("voice archive rhythm presentation workstation. ")
	}
	b.WriteString("\n")
	seg, err := text.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	syn := voice.Synthesize(text.Flatten(seg), voice.DefaultSpeaker(), 8000)
	o, err := object.NewBuilder(9, "spoken", object.Audio).VoicePart(syn.Part).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish(o); err != nil {
		t.Fatal(err)
	}
	return srv, 9
}

// voiceGroundTruth reads the object's archived PCM region directly.
func voiceGroundTruth(t testing.TB, srv *server.Server, id object.ID) (server.VoicePCM, []byte) {
	t.Helper()
	info, _, err := srv.VoicePCMInfoAs(0, id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Bytes < 4*StreamChunkBytes {
		t.Fatalf("voice part only %d PCM bytes; too short to exercise chunking", info.Bytes)
	}
	data, _, err := srv.ReadPieceAs(0, info.Off, info.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	return info, data
}

// drainStream receives a whole stream, granting credit chunk by chunk, and
// returns the reassembled bytes (verifying contiguity from the start
// offset).
func drainStream(t testing.TB, sc StreamConn, from uint64) []byte {
	t.Helper()
	var out []byte
	next := from
	for {
		ch, err := sc.Recv()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Recv at offset %d: %v", next, err)
		}
		if ch.Offset != next {
			t.Fatalf("chunk offset %d, want contiguous %d", ch.Offset, next)
		}
		out = append(out, ch.Data...)
		next += uint64(len(ch.Data))
		sc.Grant(len(ch.Data))
	}
}

// TestVoiceStreamOverMux is the end-to-end tentpole test on a real TCP
// connection: one correlation id carries header, many credit-paced data
// frames and the end frame, and the reassembled bytes equal the archived
// PCM region bit for bit. The open window is a single chunk, so the server
// must actually block on credit and resume on the client's grants.
func TestVoiceStreamOverMux(t *testing.T) {
	srv, id := voiceServer(t)
	info, want := voiceGroundTruth(t, srv, id)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeWith(l, &Handler{Srv: srv}, ServeOpts{})
	tp, err := DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()

	got, sc, err := c.VoiceStreamCtx(context.Background(), id, 0, StreamChunkBytes)
	if err != nil {
		t.Fatalf("VoiceStreamCtx: %v", err)
	}
	if got.Rate != info.Rate || got.TotalBytes != info.Bytes {
		t.Fatalf("stream meta %+v, want rate %d total %d", got, info.Rate, info.Bytes)
	}
	data := drainStream(t, sc, 0)
	if !bytes.Equal(data, want) {
		t.Fatalf("streamed %d PCM bytes diverge from the archive (%d bytes)", len(data), len(want))
	}
	if samples := AppendPCMSamples(nil, data); uint64(len(samples)) != info.Bytes/2 {
		t.Fatalf("decoded %d samples, want %d", len(samples), info.Bytes/2)
	}
	// Batched calls share the connection mid-stream unharmed — and nothing
	// leaks after the clean end.
	if _, _, err := miniatureOf(c, 3); err != nil {
		t.Fatalf("batched call after stream: %v", err)
	}
	if n := tp.OpenStreams(); n != 0 {
		t.Fatalf("%d client streams leaked after EOF", n)
	}
	if n := tp.PendingCalls(); n != 0 {
		t.Fatalf("%d pending calls leaked", n)
	}
}

// TestStreamCreditOutlivesCallTimeout: a stream that idles past the call
// timeout with no call beside it must keep delivering once the client grants
// again — every credit write arms its own deadline instead of inheriting the
// expired one the open left on the connection.
func TestStreamCreditOutlivesCallTimeout(t *testing.T) {
	srv, id := voiceServer(t)
	_, want := voiceGroundTruth(t, srv, id)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeWith(l, &Handler{Srv: srv}, ServeOpts{})
	tp, err := DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()

	tp.SetCallTimeout(30 * time.Millisecond)
	_, sc, err := c.VoiceStreamCtx(context.Background(), id, 0, StreamChunkBytes)
	if err != nil {
		t.Fatalf("VoiceStreamCtx: %v", err)
	}
	defer sc.Close()
	time.Sleep(90 * time.Millisecond) // the open's write deadline is long gone
	if data := drainStream(t, sc, 0); !bytes.Equal(data, want) {
		t.Fatalf("streamed %d PCM bytes after the idle gap, want %d", len(data), len(want))
	}
}

// TestStreamFailedCreditWriteFailsStream: a credit frame that cannot be
// written (the peer stopped reading; the write deadline fires) poisons the
// stream, so Recv reports a dead transport instead of waiting for data the
// server will never be allowed to send.
func TestStreamFailedCreditWriteFailsStream(t *testing.T) {
	client, peer := net.Pipe() // nobody reads peer: every write blocks
	defer client.Close()
	defer peer.Close()
	m := &MuxTransport{conn: client, d: newDemux()}
	m.SetCallTimeout(20 * time.Millisecond)
	st := &muxStream{m: m, id: 1, notify: make(chan struct{}, 1)}
	if err := m.d.registerStream(st.id, st); err != nil {
		t.Fatal(err)
	}
	st.Grant(StreamChunkBytes)
	if _, err := st.Recv(); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Recv after a failed credit write: %v, want ErrTransportClosed", err)
	}
}

// TestVoiceStreamResumeOffset: an open with from > 0 streams exactly the
// suffix — the failover-resume contract.
func TestVoiceStreamResumeOffset(t *testing.T) {
	srv, id := voiceServer(t)
	info, want := voiceGroundTruth(t, srv, id)
	c := NewClient(EthernetLink(&Handler{Srv: srv}))
	from := uint64(3 * StreamChunkBytes)
	got, sc, err := c.VoiceStreamCtx(context.Background(), id, from, 64<<10)
	if err != nil {
		t.Fatalf("VoiceStreamCtx(from=%d): %v", from, err)
	}
	if got.TotalBytes != info.Bytes {
		t.Fatalf("resumed meta total %d, want %d", got.TotalBytes, info.Bytes)
	}
	data := drainStream(t, sc, from)
	if !bytes.Equal(data, want[from:]) {
		t.Fatal("resumed stream diverges from the archive suffix")
	}
}

// TestMiniatureStreamOverMux: the progressive stream reassembles to the
// exact batch miniature, and the coarse pass alone already renders a
// usable image.
func TestMiniatureStreamOverMux(t *testing.T) {
	addr := serveTCP(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()
	want, _, err := miniatureOf(c, 3)
	if err != nil {
		t.Fatal(err)
	}

	info, sc, err := c.MiniatureStreamCtx(context.Background(), 3, 0, 64<<10)
	if err != nil {
		t.Fatalf("MiniatureStreamCtx: %v", err)
	}
	if info.W != want.W || info.H != want.H || info.Passes != img.ProgressivePasses {
		t.Fatalf("stream meta %+v, want %dx%d/%d passes", info, want.W, want.H, img.ProgressivePasses)
	}
	prog := img.NewProgressive(info.W, info.H)
	passes := 0
	for {
		ch, err := sc.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Recv pass %d: %v", passes, err)
		}
		pass, ok := img.PassAtOffset(info.W, info.H, ch.Offset)
		if !ok {
			t.Fatalf("offset %d not a pass boundary", ch.Offset)
		}
		if err := prog.Apply(pass, ch.Data); err != nil {
			t.Fatal(err)
		}
		if passes == 0 {
			if !prog.Usable() {
				t.Fatal("first pass did not make the miniature usable (coarse rows must come first)")
			}
			if prog.Bitmap().PopCount() == 0 {
				t.Fatal("coarse-pass image is blank")
			}
		}
		passes++
		sc.Grant(len(ch.Data))
	}
	if passes != img.ProgressivePasses {
		t.Fatalf("received %d passes, want %d", passes, img.ProgressivePasses)
	}
	if !prog.Complete() {
		t.Fatal("progressive miniature incomplete after all passes")
	}
	if prog.Bitmap().Hash() != want.Hash() {
		t.Fatal("reassembled miniature diverges from the batch fetch")
	}
}

// TestVoiceStreamLocalTiming: on the simulated 10 Mbit/s link the first
// chunk's modelled arrival time must beat the full-transfer time by a wide
// margin — the number the E-STREAM experiment is built on — and arrival
// times must be monotone with the end frame last.
func TestVoiceStreamLocalTiming(t *testing.T) {
	srv, id := voiceServer(t)
	info, _ := voiceGroundTruth(t, srv, id)
	lt := EthernetLink(&Handler{Srv: srv})
	c := NewClient(lt)

	_, sc, err := c.VoiceStreamCtx(context.Background(), id, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	var first, last, endAt time.Duration
	chunks := 0
	for {
		ch, err := sc.Recv()
		if err == io.EOF {
			endAt = ch.At
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if chunks == 0 {
			first = ch.At
		}
		if ch.At < last {
			t.Fatalf("arrival times not monotone: %v after %v", ch.At, last)
		}
		last = ch.At
		chunks++
	}
	if endAt < last {
		t.Fatalf("end frame at %v before last chunk at %v", endAt, last)
	}
	fullTransfer := lt.byteCost(int(info.Bytes))
	if first*5 > fullTransfer {
		t.Fatalf("first chunk at %v, not 5x below the %v full transfer (%d chunks)",
			first, fullTransfer, chunks)
	}
}

// TestStreamOpenErrors: open-time failures classify exactly like batch
// failures and never start a stream.
func TestStreamOpenErrors(t *testing.T) {
	srv, id := voiceServer(t)
	ctx := context.Background()

	// Simulated link.
	c := NewClient(EthernetLink(&Handler{Srv: srv}))
	if _, _, err := c.VoiceStreamCtx(ctx, 424242, 0, 1024); err == nil {
		t.Fatal("stream open for unknown object accepted")
	} else if StreamFallback(err) {
		t.Fatalf("unknown object classified as fallback: %v", err)
	}
	if _, _, err := c.VoiceStreamCtx(ctx, id, 3, 1024); err == nil {
		t.Fatal("odd PCM offset accepted")
	}
	if _, _, err := c.VoiceStreamCtx(ctx, id, 1<<40, 1024); err == nil {
		t.Fatal("offset past the part accepted")
	}
	if _, _, err := c.MiniatureStreamCtx(ctx, 3, 7, 1024); err == nil {
		t.Fatal("non-pass-boundary miniature offset accepted")
	}
	if _, _, err := c.VoiceStreamCtx(ctx, 1, 0, 1024); err == nil {
		t.Fatal("voice stream of a voiceless object accepted")
	}

	// Same open-time failure over the mux: it must arrive as an ordinary
	// error response under the stream's id and leak nothing.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeWith(l, &Handler{Srv: srv}, ServeOpts{})
	tp, err := DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	mc := NewClient(tp)
	defer mc.Close()
	if _, _, err := mc.VoiceStreamCtx(ctx, 424242, 0, 1024); err == nil {
		t.Fatal("mux stream open for unknown object accepted")
	}
	if n := tp.OpenStreams(); n != 0 {
		t.Fatalf("%d streams leaked after failed open", n)
	}
}

// TestStreamFallbackWithoutOpener: a transport that cannot open streams (a
// plain Transport, like the fault injector's wrapper) fails the open with
// ErrStreamUnsupported before anything hits the wire — the one condition
// StreamFallback routes to the batch ops. A server-side open failure is not
// one: it must surface to the caller.
func TestStreamFallbackWithoutOpener(t *testing.T) {
	c := NewClient(&staticTransport{})
	_, _, serr := c.VoiceStreamCtx(context.Background(), 3, 0, 1024)
	if !errors.Is(serr, ErrStreamUnsupported) || !StreamFallback(serr) {
		t.Fatalf("stream on a plain transport = %v, want ErrStreamUnsupported", serr)
	}
	_, _, serr = c.MiniatureStreamCtx(context.Background(), 3, 0, 1024)
	if !StreamFallback(serr) {
		t.Fatalf("miniature stream on a plain transport = %v, want the fallback class", serr)
	}
	lc, _ := localClient(t)
	if _, _, err := lc.VoiceStreamCtx(context.Background(), 424242, 0, 1024); err == nil || StreamFallback(err) {
		t.Fatalf("open failure %v classified as fallback", err)
	}
}

// collectSink records a producer's output for direct ServeStreamAs tests.
type collectSink struct {
	header bool
	chunks int
}

func (s *collectSink) Grant(uint32) {}
func (s *collectSink) Header(meta []byte, dev time.Duration) error {
	s.header = true
	return nil
}
func (s *collectSink) Data(off uint64, chunk []byte, dev time.Duration) error {
	s.chunks++
	return nil
}

// TestStreamCodecHostileInputs is the fuzz/truncation table for the stream
// frame codec and the open-request parser: every malformed input must be
// rejected with an error (or dropped), never a panic or a bogus stream.
func TestStreamCodecHostileInputs(t *testing.T) {
	// Frame parsing: truncated headers and lying payload lengths.
	frames := [][]byte{
		nil,
		{},
		{statusStreamData},
		make([]byte, respHeader-1),
		// Header claims 16 payload bytes, frame carries 4.
		func() []byte {
			f := make([]byte, respHeader+4)
			f[0] = statusStreamData
			binary.BigEndian.PutUint32(f[9:], 16)
			return f
		}(),
		// Payload length overflows int32 wraparound territory.
		func() []byte {
			f := make([]byte, respHeader)
			f[0] = statusStreamHdr
			binary.BigEndian.PutUint32(f[9:], 0xFFFFFFFF)
			return f
		}(),
	}
	for i, f := range frames {
		if _, _, _, err := parseStreamFrame(f); err == nil {
			t.Fatalf("hostile frame %d accepted", i)
		}
	}
	// A data payload must carry at least its offset.
	for i, p := range [][]byte{nil, {}, {1, 2, 3, 4, 5, 6, 7}} {
		if _, _, err := parseStreamData(p); err == nil {
			t.Fatalf("hostile data payload %d accepted", i)
		}
	}
	// Metadata parsers reject truncation at every boundary.
	goodVoice := appendU64(appendU32(nil, 8000), 1<<20)
	for cut := 0; cut < len(goodVoice); cut++ {
		if _, err := parseVoiceStreamMeta(goodVoice[:cut]); err == nil {
			t.Fatalf("truncated voice meta (%d bytes) accepted", cut)
		}
	}
	goodMini := appendU64(appendU32(appendU32(appendU32(nil, 64), 64), 4), 4096)
	for cut := 0; cut < len(goodMini); cut++ {
		if _, err := parseMiniatureStreamMeta(goodMini[:cut]); err == nil {
			t.Fatalf("truncated miniature meta (%d bytes) accepted", cut)
		}
	}

	// Open-request parsing: truncations of a valid request, then unknown op.
	srv, id := voiceServer(t)
	h := &Handler{Srv: srv}
	good := encodeStreamOpen(OpVoiceStream, id, 0, 4096)
	for cut := 0; cut < len(good); cut++ {
		sink := &collectSink{}
		if err := h.ServeStreamAs(0, good[:cut], sink); err == nil {
			t.Fatalf("truncated open request (%d bytes) accepted", cut)
		}
		if sink.header || sink.chunks > 0 {
			t.Fatalf("truncated open request (%d bytes) produced output", cut)
		}
	}
	sink := &collectSink{}
	if err := h.ServeStreamAs(0, encodeStreamOpen(200, id, 0, 4096), sink); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("unknown stream op = %v, want unknown-op error", err)
	}
}

// TestSrvStreamCreditOverflow: hostile credit replay saturates instead of
// wrapping, and the stream keeps working at the cap.
func TestSrvStreamCreditOverflow(t *testing.T) {
	s := newSrvStream()
	for i := 0; i < 1<<12; i++ {
		s.grant(0xFFFFFFFF)
	}
	s.mu.Lock()
	credit := s.credit
	s.mu.Unlock()
	if credit != maxStreamCredit {
		t.Fatalf("credit = %d after hostile grants, want saturation at %d", credit, maxStreamCredit)
	}
	if !s.take(StreamChunkBytes) {
		t.Fatal("take failed with a saturated window")
	}
	s.cancel()
	if s.take(1) {
		t.Fatal("take succeeded after cancel")
	}
}

// TestSrvStreamsRegistryHostile: duplicate opens, credits and cancels for
// unknown ids, and opens after connection death are all rejected or
// dropped.
func TestSrvStreamsRegistry(t *testing.T) {
	r := newSrvStreams()
	st := r.open(7)
	if st == nil {
		t.Fatal("fresh open failed")
	}
	if r.open(7) != nil {
		t.Fatal("duplicate stream id accepted")
	}
	r.grant(99, 4096) // unknown id: dropped
	r.cancel(99)      // unknown id: dropped
	r.grant(7, 4096)
	if !st.take(4096) {
		t.Fatal("granted credit not taken")
	}
	r.cancelAll()
	if st.take(1) {
		t.Fatal("stream usable after cancelAll")
	}
	if r.open(8) != nil {
		t.Fatal("open accepted on a dead connection")
	}
}

// TestDemuxStreamFrames: stream frames for unknown ids (hostile, or data
// racing a finished stream) are dropped; connection death fails open
// streams exactly like pending calls.
func TestDemuxStreamFrames(t *testing.T) {
	d := newDemux()
	st := &muxStream{id: 5, notify: make(chan struct{}, 1)}
	if err := d.registerStream(5, st); err != nil {
		t.Fatal(err)
	}
	if !d.deliver(append(appendU32(nil, 5), 0xAB)) {
		t.Fatal("stream frame not delivered")
	}
	// Data after the stream retired its slot — dropped, not crashed.
	d.removeStream(5)
	if d.deliver(append(appendU32(nil, 5), 0xCD)) {
		t.Fatal("frame for a retired stream delivered")
	}
	if d.deliver(append(appendU32(nil, 77), 0xEE)) {
		t.Fatal("frame for an unknown stream delivered")
	}
	// failAll poisons registered streams.
	st2 := &muxStream{id: 6, notify: make(chan struct{}, 1)}
	if err := d.registerStream(6, st2); err != nil {
		t.Fatal(err)
	}
	d.failAll(ErrTransportClosed)
	if _, err := st2.next(nil, time.Second); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("stream after failAll = %v, want ErrTransportClosed", err)
	}
	if d.streamLen() != 0 {
		t.Fatalf("%d streams left after failAll", d.streamLen())
	}
}

// TestStreamCancelRaceWithBatches is the -race gate for the shared mux
// connection: a voice stream is cancelled mid-flight (its producer blocked
// on credit) while goroutines hammer batched miniature calls on the same
// connection. The batches must all succeed, and neither side may leak
// stream slots, pending calls, or goroutines.
func TestStreamCancelRaceWithBatches(t *testing.T) {
	srv, id := voiceServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeWith(l, &Handler{Srv: srv}, ServeOpts{})
	tp, err := DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()
	if _, _, err := miniatureOf(c, 3); err != nil { // settle the connection
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	iters := raceIters(t, 24)
	for i := 0; i < iters; i++ {
		// Tiny window: the producer sends one chunk and parks on credit —
		// guaranteed mid-flight when the cancel lands.
		_, sc, err := c.VoiceStreamCtx(context.Background(), id, 0, StreamChunkBytes)
		if err != nil {
			t.Fatalf("iter %d: open: %v", i, err)
		}
		var wg sync.WaitGroup
		errc := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 4; k++ {
					res, _, err := c.MiniaturesCtx(context.Background(), []object.ID{1, 2, 3})
					if err != nil {
						errc <- err
						return
					}
					if len(res) != 3 || !res[0].OK {
						errc <- fmt.Errorf("goroutine %d: batch = %+v", g, res)
						return
					}
				}
			}(g)
		}
		if _, err := sc.Recv(); err != nil {
			t.Fatalf("iter %d: first chunk: %v", i, err)
		}
		sc.Close() // cancel mid-flight, races the batches
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		if n := tp.OpenStreams(); n != 0 {
			t.Fatalf("iter %d: %d stream slots leaked after cancel", i, n)
		}
	}
	if n := tp.PendingCalls(); n != 0 {
		t.Fatalf("%d pending calls leaked", n)
	}
	// Server producer goroutines parked on credit must have unwound on the
	// cancel frames; give the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d never returned to baseline %d: cancelled producers leaked",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAllocStreamVoiceChunks extends the zero-allocation guard to the
// chunked voice serve path: with the block cache warm, the marginal cost
// of a streamed chunk is zero heap allocations (per-stream overhead —
// admission, descriptor parse, metadata — is amortized out by comparing
// two stream lengths).
func TestAllocStreamVoiceChunks(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	// A dedicated server whose block cache holds the whole PCM region: the
	// guard measures the steady-state serve path, not cache-miss device
	// reads.
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(4096))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(archiver.New(dev), server.WithCache(8192))
	id := object.ID(9)
	seg, err := text.Parse("Alloc guard corpus. " + strings.Repeat("voice archive rhythm presentation workstation. ", 120))
	if err != nil {
		t.Fatal(err)
	}
	syn := voice.Synthesize(text.Flatten(seg), voice.DefaultSpeaker(), 8000)
	o, err := object.NewBuilder(id, "spoken", object.Audio).VoicePart(syn.Part).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish(o); err != nil {
		t.Fatal(err)
	}
	h := &Handler{Srv: srv}
	info, _, ierr := srv.VoicePCMInfoAs(0, id)
	if ierr != nil {
		t.Fatal(ierr)
	}
	run := func(from uint64) (chunks float64, allocs float64) {
		req := encodeStreamOpen(OpVoiceStream, id, from, 1<<20)
		sink := &collectSink{}
		if err := h.ServeStreamAs(0, req, sink); err != nil { // warm cache + pools
			t.Fatal(err)
		}
		chunks = float64(sink.chunks)
		allocs = testing.AllocsPerRun(20, func() {
			s := &collectSink{}
			if err := h.ServeStreamAs(0, req, s); err != nil {
				t.Fatal(err)
			}
		})
		return chunks, allocs
	}
	lastChunk := (info.Bytes - 1) / StreamChunkBytes * StreamChunkBytes
	shortChunks, shortAllocs := run(lastChunk) // 1 chunk
	fullChunks, fullAllocs := run(0)           // all chunks
	if fullChunks-shortChunks < 4 {
		t.Fatalf("stream lengths %v vs %v chunks: too close to measure marginal cost", fullChunks, shortChunks)
	}
	perChunk := (fullAllocs - shortAllocs) / (fullChunks - shortChunks)
	if perChunk > 0.01 {
		t.Fatalf("voice streaming allocates %.3f objects per chunk (full %.0f allocs/%.0f chunks, short %.0f/%.0f), want 0",
			perChunk, fullAllocs, fullChunks, shortAllocs, shortChunks)
	}
}

// TestAllocMuxStreamFrameWrite guards the wire side of the chunk path:
// staging data frames in the sink's pooled buffer and writing the batches
// out must not allocate in steady state.
func TestAllocMuxStreamFrameWrite(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	var mu sync.Mutex
	st := newSrvStream()
	st.grant(math.MaxUint32)
	sink := newMuxStreamSink(io.Discard, &mu, 7, st)
	defer sink.release()
	chunk := make([]byte, StreamChunkBytes)
	if err := sink.Data(0, chunk, 0); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := sink.Data(4096, chunk, 0); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("stream frame write allocates %.1f objects/run in steady state, want 0", avg)
	}
}
