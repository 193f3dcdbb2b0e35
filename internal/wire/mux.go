package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"minos/internal/pool"
)

// protocolVersion is the one protocol version both ends speak. A connection
// opens with a lock-step HELLO exchange naming it; every later frame, in
// both directions, is prefixed with a 4-byte correlation id, so many
// exchanges are in flight at once over the one connection — which is what
// lets the browse prefetch pipeline overlap delivery with viewing instead
// of paying a full link round trip per cursor step. One correlation id may
// also carry a server-push stream: a whole sequence of frames under
// credit-based flow control (see stream.go).
const protocolVersion = 3

// Errors surfaced by pipelined calls.
var (
	// ErrCallTimeout reports a call that exceeded its per-call deadline.
	// The connection stays usable: the late response is discarded by the
	// demultiplexer when (if) it arrives.
	ErrCallTimeout = errors.New("wire: call timed out")
	// ErrTransportClosed reports a call attempted or in flight when the
	// connection died; every pending call fails with an error wrapping it.
	ErrTransportClosed = errors.New("wire: transport closed")
)

// Pending is one in-flight exchange started on a pipelined transport.
type Pending interface {
	// Wait blocks until the response (or the call's failure) arrives.
	Wait() ([]byte, error)
}

// Pipeliner is a Transport that can carry many concurrent exchanges at
// once. Transports that cannot (a fault-injecting wrapper, say) are adapted
// by the client with a goroutine per call.
type Pipeliner interface {
	Transport
	Start(req []byte) Pending
}

// --- correlation-id demultiplexer ---

type muxResult struct {
	resp []byte
	err  error
}

// demux routes response frames to the pending call with the matching
// correlation id. It is deliberately self-contained (no net.Conn) so the
// fuzz target can drive it with hostile frames directly: truncated,
// duplicate and unknown-id frames must be dropped without panicking and
// without leaking pending-call table entries.
type demux struct {
	mu      sync.Mutex
	pending map[uint32]chan muxResult
	// streams routes ids with many frames in flight (server-push streams):
	// unlike pending, a delivery does not retire the slot.
	streams map[uint32]*muxStream
	err     error // set once the transport dies; register fails afterwards
}

func newDemux() *demux {
	return &demux{pending: map[uint32]chan muxResult{}, streams: map[uint32]*muxStream{}}
}

// register allocates the pending slot for a correlation id. It fails after
// failAll (connection dead) and on a duplicate id (caller bug).
func (d *demux) register(id uint32) (chan muxResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return nil, d.err
	}
	if _, dup := d.pending[id]; dup {
		return nil, fmt.Errorf("wire: duplicate correlation id %d", id)
	}
	ch := make(chan muxResult, 1)
	d.pending[id] = ch
	return ch, nil
}

// cancel drops a pending slot (per-call timeout); a response arriving later
// is treated as unknown-id and discarded.
func (d *demux) cancel(id uint32) {
	d.mu.Lock()
	delete(d.pending, id)
	d.mu.Unlock()
}

// registerStream allocates the stream slot for a correlation id; stream
// slots live until removeStream (many frames deliver to them).
func (d *demux) registerStream(id uint32, s *muxStream) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if _, dup := d.pending[id]; dup {
		return fmt.Errorf("wire: duplicate correlation id %d", id)
	}
	if _, dup := d.streams[id]; dup {
		return fmt.Errorf("wire: duplicate correlation id %d", id)
	}
	d.streams[id] = s
	return nil
}

// removeStream releases a stream slot; later frames for the id are
// unknown-id drops.
func (d *demux) removeStream(id uint32) {
	d.mu.Lock()
	delete(d.streams, id)
	d.mu.Unlock()
}

// isStream reports whether id names an open stream. The read loop asks
// before it reads a frame's body, to land stream frames in pooled buffers.
func (d *demux) isStream(id uint32) bool {
	d.mu.Lock()
	_, ok := d.streams[id]
	d.mu.Unlock()
	return ok
}

// deliver routes one raw frame ([4-byte id][response]) to its pending
// call or open stream, which takes ownership of it: a call keeps the
// response, a stream recycles the whole frame into pool.Bytes once consumed.
// It reports whether the frame found a home; short frames and unknown or
// already-completed ids are dropped and stay the caller's.
func (d *demux) deliver(frame []byte) bool {
	if len(frame) < 4 {
		return false
	}
	id := binary.BigEndian.Uint32(frame)
	d.mu.Lock()
	ch, ok := d.pending[id]
	if ok {
		delete(d.pending, id)
	}
	var st *muxStream
	if !ok {
		st = d.streams[id]
	}
	d.mu.Unlock()
	if ok {
		ch <- muxResult{resp: frame[4:]}
		return true
	}
	if st != nil {
		st.push(frame)
		return true
	}
	return false
}

// failAll completes every pending call with err and poisons the table so
// later register calls fail fast — the clean-error-propagation path when
// the connection dies under in-flight requests.
func (d *demux) failAll(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	ferr := d.err
	for id, ch := range d.pending {
		delete(d.pending, id)
		ch <- muxResult{err: ferr}
	}
	var streams []*muxStream
	for id, s := range d.streams {
		delete(d.streams, id)
		streams = append(streams, s)
	}
	d.mu.Unlock()
	for _, s := range streams {
		s.fail(ferr)
	}
}

// streamLen returns the number of registered, unclosed streams.
func (d *demux) streamLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.streams)
}

// pendingLen returns the number of registered, undelivered calls.
func (d *demux) pendingLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// --- client-side multiplexed transport ---

// MuxTransport runs the protocol over a net.Conn: any number of calls and
// streams may be in flight concurrently on the one connection, each with
// its own correlation id and optional per-call timeout.
type MuxTransport struct {
	conn net.Conn
	// helloExtra is the opaque payload the server appended to its HELLO
	// ack (a fleet member's encoded cluster map); nil otherwise.
	helloExtra []byte

	// callTimeout (nanoseconds) bounds each call; 0 = wait forever.
	callTimeout atomic.Int64

	writeMu sync.Mutex
	d       *demux
	nextID  atomic.Uint32

	// dead is set by the read loop when the connection ends — the one
	// place a FIN or RST is seen with no call in flight.
	dead atomic.Bool
}

// DialMux connects to a wire server and opens the connection with a HELLO.
// Anything but a well-formed acknowledgement of protocolVersion fails the
// dial with an error wrapping ErrTransportClosed: the connection is
// useless, and a reconnecting client should simply dial again.
func DialMux(addr string) (*MuxTransport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return openMux(conn)
}

// openMux runs the opening exchange on a fresh connection and starts its
// read loop; a failed exchange closes the connection.
func openMux(conn net.Conn) (*MuxTransport, error) {
	extra, err := hello(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: hello: %w", ErrTransportClosed, err)
	}
	m := &MuxTransport{conn: conn, helloExtra: extra, d: newDemux()}
	go m.readLoop()
	return m, nil
}

// hello performs the client side of the opening exchange and returns the
// payload the server attached to its acknowledgement: an optional
// length-prefixed blob after the version word (nil when absent or damaged).
func hello(conn net.Conn) (extra []byte, err error) {
	if err := WriteFrame(conn, appendU32([]byte{OpHello}, protocolVersion)); err != nil {
		return nil, err
	}
	resp, err := ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	payload, _, err := parseResponse(resp)
	if err != nil {
		return nil, err
	}
	c := &cursor{data: payload}
	v, err := c.u32()
	if err != nil {
		return nil, err
	}
	if v != protocolVersion {
		return nil, fmt.Errorf("wire: server acknowledged protocol version %d, want %d", v, protocolVersion)
	}
	if n, err := c.u32(); err == nil && int(n) <= len(c.rest()) {
		extra = append([]byte(nil), c.rest()[:n]...)
	}
	return extra, nil
}

// HelloExtra returns the opaque payload the server attached to its HELLO
// acknowledgement — a sharded fleet member attaches its encoded cluster map
// — or nil. The routing client uses it to learn the shard topology without
// a second round trip.
func (m *MuxTransport) HelloExtra() []byte { return m.helloExtra }

// SetCallTimeout bounds every subsequent call (write + wait for response);
// zero waits forever. A timed-out call fails with ErrCallTimeout while the
// connection stays usable. Start arms the connection's write deadline per
// call only while a timeout is set, so switching the timeout off clears the
// last armed deadline here rather than on every call. It takes the write
// lock, so it may wait for a frame write already in progress.
func (m *MuxTransport) SetCallTimeout(d time.Duration) {
	m.writeMu.Lock()
	m.callTimeout.Store(int64(d))
	if d <= 0 {
		m.conn.SetWriteDeadline(time.Time{})
	}
	m.writeMu.Unlock()
}

// clientReadBuffer sizes the read loop's buffer to the server→client
// traffic: stream data arrives in writes of up to streamStageBytes, so one
// read syscall picks up a whole staged batch of frames.
const clientReadBuffer = streamStageBytes

// readLoop is the single reader demultiplexing response frames; on any
// read error it fails every pending call and poisons the transport. Frames
// are read through one buffered reader, so header and body cost at most one
// syscall and back-to-back frames share one.
func (m *MuxTransport) readLoop() {
	br := bufio.NewReaderSize(m.conn, clientReadBuffer)
	var hdr [4]byte
	for {
		frame, pooled, err := m.readFrame(br, &hdr)
		if err != nil {
			m.dead.Store(true)
			m.d.failAll(fmt.Errorf("%w: %v", ErrTransportClosed, err))
			return
		}
		if !m.d.deliver(frame) && pooled {
			pool.Bytes.Put(frame) // the stream went away between peek and delivery
		}
	}
}

// readFrame reads one frame. The correlation id is peeked through the
// buffered reader before the body is read: a frame bound for an open stream
// lands in a pooled buffer the stream recycles (StreamChunk.Data is valid
// only until the next Recv), while a unary response keeps an allocation its
// caller owns for good.
func (m *MuxTransport) readFrame(br *bufio.Reader, hdr *[4]byte) (frame []byte, pooled bool, err error) {
	n, err := readFrameLen(br, hdr)
	if err != nil {
		return nil, false, err
	}
	if n >= 4 {
		id, err := br.Peek(4)
		if err != nil {
			return nil, false, err
		}
		pooled = m.d.isStream(binary.BigEndian.Uint32(id))
	}
	if pooled {
		frame = pool.Bytes.Get(n)
	} else {
		frame = make([]byte, n)
	}
	if _, err := io.ReadFull(br, frame); err != nil {
		if pooled {
			pool.Bytes.Put(frame)
		}
		return nil, false, err
	}
	return frame, pooled, nil
}

// muxPending is an in-flight call.
type muxPending struct {
	m       *muxPendingState
	timeout time.Duration
	ctx     context.Context // optional; non-nil calls also fail on ctx end
}

type muxPendingState struct {
	d   *demux
	id  uint32
	ch  chan muxResult
	err error // immediate failure (register/write)
}

// Wait implements Pending.
func (p *muxPending) Wait() ([]byte, error) {
	if p.m.err != nil {
		return nil, p.m.err
	}
	var timeoutC <-chan time.Time
	if p.timeout > 0 {
		t := time.NewTimer(p.timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	var done <-chan struct{}
	if p.ctx != nil {
		done = p.ctx.Done()
	}
	select {
	case r := <-p.m.ch:
		return r.resp, r.err
	case <-timeoutC:
		return p.abandon(fmt.Errorf("%w after %v", ErrCallTimeout, p.timeout))
	case <-done:
		return p.abandon(p.ctx.Err())
	}
}

// abandon gives up on the call (timeout or context end), releasing its
// pending slot so the table does not leak. The demux may have delivered
// between the trigger and the cancel; prefer the response if it is already
// there.
func (p *muxPending) abandon(err error) ([]byte, error) {
	if p.m.d != nil {
		p.m.d.cancel(p.m.id)
	}
	select {
	case r := <-p.m.ch:
		return r.resp, r.err
	default:
	}
	return nil, err
}

// errPending is a call that failed before it was written.
type errPending struct{ err error }

func (p errPending) Wait() ([]byte, error) { return nil, p.err }

// Start implements Pipeliner: it sends the request and returns immediately;
// Wait collects the response.
func (m *MuxTransport) Start(req []byte) Pending {
	id := m.nextID.Add(1)
	ch, err := m.d.register(id)
	if err != nil {
		return errPending{err: err}
	}
	timeout, werr := m.sendFrame(id, req)
	if werr != nil {
		m.d.cancel(id)
		return errPending{err: werr}
	}
	return &muxPending{m: &muxPendingState{d: m.d, id: id, ch: ch}, timeout: timeout}
}

// sendFrame sends one request frame under the write lock, arming the write
// deadline when a call timeout is set (read under the same lock, so a
// concurrent SetCallTimeout(0) cannot be overtaken by a stale deadline). It
// returns the call timeout the frame was sent under.
func (m *MuxTransport) sendFrame(id uint32, req []byte) (time.Duration, error) {
	out := muxFrame(id, req)
	m.writeMu.Lock()
	timeout := time.Duration(m.callTimeout.Load())
	if timeout > 0 {
		m.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	_, err := m.conn.Write(out)
	m.writeMu.Unlock()
	pool.Bytes.Put(out)
	return timeout, err
}

// muxFrame stages one frame — [length u32][correlation id u32][msg] — in
// an exactly-sized pooled buffer, so the whole frame goes out in a single
// Write. The caller owns the result and recycles it after the write.
func muxFrame(id uint32, msg []byte) []byte {
	out := pool.Bytes.Get(8 + len(msg))
	binary.BigEndian.PutUint32(out, uint32(4+len(msg)))
	binary.BigEndian.PutUint32(out[4:], id)
	copy(out[8:], msg)
	return out
}

// StartCtx implements ContextPipeliner: the in-flight call additionally
// fails with the context's error when ctx ends before the response. A
// cancelled call releases its pending slot and any late response is
// discarded by the demultiplexer; the connection stays usable.
func (m *MuxTransport) StartCtx(ctx context.Context, req []byte) Pending {
	if err := ctx.Err(); err != nil {
		return errPending{err: err}
	}
	p := m.Start(req)
	if mp, ok := p.(*muxPending); ok && ctx.Done() != nil {
		mp.ctx = ctx
	}
	return p
}

// RoundTrip implements Transport; it is safe for concurrent use, and
// concurrent calls really are in flight together on the wire.
func (m *MuxTransport) RoundTrip(req []byte) ([]byte, error) {
	return m.Start(req).Wait()
}

// RoundTripCtx implements ContextTransport.
func (m *MuxTransport) RoundTripCtx(ctx context.Context, req []byte) ([]byte, error) {
	return m.StartCtx(ctx, req).Wait()
}

// PendingCalls reports the number of in-flight calls still awaiting a
// response. The fault-matrix tests use it to assert that faults never leak
// pending-call table entries.
func (m *MuxTransport) PendingCalls() int { return m.d.pendingLen() }

// Close implements Transport; pending calls fail with ErrTransportClosed.
func (m *MuxTransport) Close() error { return m.conn.Close() }

// connDead reports whether the read loop has seen the connection end.
// Client.Reconnects finds it through wrappers (see transportDead).
func (m *MuxTransport) connDead() bool { return m.dead.Load() }

// --- server side ---

// maxConnInFlight bounds concurrently-served requests per connection;
// the read loop blocks (natural backpressure) when a client keeps more in
// flight than that.
const maxConnInFlight = 64

// muxConn serves one connection after its HELLO exchange: each request frame
// is handled on its own goroutine and its response written back tagged with
// the request's correlation id, so slow (device-bound) requests do not block
// fast (cache-hit) ones behind head-of-line. Stream ops get dedicated
// handling: credit and cancel frames are applied inline by the read loop
// (they must never queue behind data production), and stream producers run
// on goroutines outside the in-flight semaphore — they are paced by their
// credit windows, and letting them hold semaphore slots for a stream's
// lifetime would starve (or deadlock) batched calls. Returns when the
// connection dies, after cancelling open streams and draining in-flight
// handlers.
func muxConn(conn net.Conn, br *bufio.Reader, tenant uint64, h *Handler, opts ServeOpts, logf func(format string, args ...any)) {
	var (
		writeMu sync.Mutex
		wg      sync.WaitGroup
		sem     = make(chan struct{}, maxConnInFlight)
		hdr     [4]byte // frame-header scratch (only the read loop touches it)
		streams = newSrvStreams()
	)
	defer wg.Wait()
	defer streams.cancelAll() // runs before wg.Wait: unblocks producers first
	for {
		if opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(opts.IdleTimeout))
		}
		frame, err := readFramePooled(br, &hdr)
		if err != nil {
			if !isCleanClose(err) {
				logf("wire: %s: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if len(frame) < 4 {
			logf("wire: %s: short frame (%d bytes)", conn.RemoteAddr(), len(frame))
			return
		}
		id := binary.BigEndian.Uint32(frame)
		if len(frame) >= 5 {
			switch frame[4] {
			case OpStreamCredit:
				if len(frame) >= 9 {
					streams.grant(id, binary.BigEndian.Uint32(frame[5:9]))
				}
				pool.Bytes.Put(frame)
				continue
			case OpStreamCancel:
				streams.cancel(id)
				pool.Bytes.Put(frame)
				continue
			case OpVoiceStream, OpMiniatureStream:
				st := streams.open(id)
				if st == nil {
					logf("wire: %s: duplicate stream id %d", conn.RemoteAddr(), id)
					pool.Bytes.Put(frame)
					continue
				}
				wg.Add(1)
				go func(id uint32, frame []byte, st *srvStream) {
					defer wg.Done()
					defer streams.remove(id)
					serveMuxStream(conn, &writeMu, id, tenant, h, frame[4:], st, logf)
					pool.Bytes.Put(frame)
				}(id, frame, st)
				continue
			}
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(id uint32, frame []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			resp := h.HandleAs(tenant, frame[4:])
			pool.Bytes.Put(frame) // HandleAs copies what it keeps
			out := muxFrame(id, resp)
			writeMu.Lock()
			_, werr := conn.Write(out)
			writeMu.Unlock()
			pool.Bytes.Put(out)
			recycleResponse(resp)
			if werr != nil && !errors.Is(werr, net.ErrClosed) {
				logf("wire: %s: write: %v", conn.RemoteAddr(), werr)
			}
		}(id, frame)
	}
}
