package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"time"
)

// Resilience layer: every client call is classified on failure as retryable
// (transient link/server condition: retry, possibly after reconnecting) or
// fatal (server-reported application error, caller bug, cancelled context).
// All wire ops are idempotent reads — the protocol is piece-oriented and the
// server mutates nothing on their behalf — so retrying any of them is safe.

// ErrServerBusy reports that the server shed the request from its bounded
// in-flight queue (statusBusy). The condition is transient by construction:
// back off and retry.
var ErrServerBusy = errors.New("wire: server busy")

// errNoRedial marks a connection failure on a client with no redial
// function installed: the error is structurally retryable but this client
// cannot recover from it.
var errNoRedial = errors.New("wire: transport lost and no redialer installed")

// IsRetryable reports whether err names a transient condition for which
// retrying the (idempotent) call can succeed: server load shedding, per-call
// timeouts, damaged frames and connection failures. Server application
// errors and context cancellation are fatal.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, ErrServerBusy) ||
		errors.Is(err, ErrCallTimeout) ||
		errors.Is(err, ErrShort) ||
		NeedsReconnect(err)
}

// NeedsReconnect reports whether err means the connection under the
// transport is dead (or was never established), so a retry is useless until
// the client redials.
func NeedsReconnect(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTransportClosed) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNABORTED) {
		return true
	}
	// Transport-level deadline expiries (a stalled connection) surface as
	// net.Error timeouts; the connection state is unknown, so rebuild it.
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return true
	}
	return false
}

// RetryPolicy bounds the retry loop wrapped around every client call.
// Delays grow exponentially from BaseDelay, capped at MaxDelay, with ±50%
// jitter so a fleet of workstations recovering from one server restart does
// not stampede back in lockstep (the §5 shared-device queueing worry, again).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, including the first
	// (default 4). 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 2ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 250ms).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 2 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	return p
}

// BackoffRand is the jitter source of the retry loop: a Weyl-sequence
// splitmix64 generator on one atomic word. Drawing from it is lock-free and
// allocation-free, so a scatter/gather fan-out with K per-shard calls
// retrying concurrently shares a single source instead of contending on the
// math/rand global lock (or seeding K throwaway generators).
type BackoffRand struct {
	state atomic.Uint64
}

// NewBackoffRand returns a jitter source seeded deterministically from seed.
func NewBackoffRand(seed uint64) *BackoffRand {
	r := &BackoffRand{}
	r.state.Store(seed)
	return r
}

// backoffSeq seeds per-client default sources so clients built in a loop do
// not share one jitter stream by accident.
var backoffSeq atomic.Uint64

func newDefaultBackoffRand() *BackoffRand {
	return NewBackoffRand(backoffSeq.Add(1) * 0x9E3779B97F4A7C15)
}

// next draws one value: an atomic Weyl step followed by the splitmix64
// finalizer.
func (r *BackoffRand) next() uint64 {
	x := r.state.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// backoff returns the jittered delay to sleep before retry number `retry`
// (1-based), drawing jitter from rng.
func (p RetryPolicy) backoff(retry int, rng *BackoffRand) time.Duration {
	d := p.BaseDelay
	for i := 1; i < retry && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Jitter in [d/2, d].
	half := uint64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rng.next()%(half+1))
}

// sleepCtx sleeps for d or until the context ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SetRetryPolicy replaces the client's retry policy. The zero value
// restores the defaults.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	c.retry = p.withDefaults()
	c.mu.Unlock()
}

// SetBackoffRand replaces the client's backoff jitter source. A routed
// (multi-shard) client installs one shared source on every per-shard client
// so a K-way fan-out draws from a single generator.
func (c *Client) SetBackoffRand(r *BackoffRand) {
	c.mu.Lock()
	c.jitter = r
	c.mu.Unlock()
}

// EnableReconnect installs a redial function used to rebuild the transport
// when a call fails with a connection error. The function must open the
// connection the way the original dial did (DialMux sends HELLO). Calls in
// flight on the dead transport still fail; subsequent retries go out on the
// fresh one.
func (c *Client) EnableReconnect(redial func() (Transport, error)) {
	c.mu.Lock()
	c.redial = redial
	c.mu.Unlock()
}

// Reconnects is a monotone counter of connection loss: the number of times
// the client has replaced its transport, plus one while the current
// transport is known dead. Sessions watch it to re-synchronize state
// (result sets, prefetch generations) that a server restart may have
// invalidated. Counting the death, not only the later redial, is what lets
// a session that is being served from its read-ahead cache — and so makes
// no call that would redial — learn of a restart: the mux read loop sees
// the connection end with nothing in flight. Once the transport has
// observed the death, the counter has moved.
func (c *Client) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.reconnects
	if transportDead(c.t) {
		n++
	}
	return n
}

// transportDead reports whether t, or the transport a decorator such as
// faults.Transport wraps, has seen its connection end. Transports without
// a connection of their own (LocalTransport) are never dead.
func transportDead(t Transport) bool {
	for {
		if d, ok := t.(interface{ connDead() bool }); ok {
			return d.connDead()
		}
		u, ok := t.(interface{ Unwrap() Transport })
		if !ok {
			return false
		}
		t = u.Unwrap()
	}
}

// Transport returns the client's current transport (it changes across
// reconnects).
func (c *Client) Transport() Transport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// reconnect replaces the dead transport old with a freshly dialed one. If
// another goroutine already swapped it, the redial is skipped — concurrent
// callers share one reconnect.
func (c *Client) reconnect(old Transport) error {
	c.mu.Lock()
	if c.t != old {
		c.mu.Unlock()
		return nil
	}
	redial := c.redial
	c.mu.Unlock()
	if redial == nil {
		return errNoRedial
	}
	nt, err := redial()
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.t != old {
		// Lost the race: another caller reconnected first.
		c.mu.Unlock()
		nt.Close()
		return nil
	}
	c.t = nt
	c.reconnects++
	c.mu.Unlock()
	old.Close()
	return nil
}
