// Package wire implements the workstation ↔ object-server protocol. The
// paper's architecture (§5) connects workstations to the server subsystem
// "through high capacity links" (Ethernet in the 1986 implementation); here
// the protocol runs over real TCP (net) or over an in-memory simulated link
// with a latency/bandwidth model, so experiments can account for bytes
// moved and transfer time (the E-VIEW and E-MINI experiments depend on
// this).
//
// The protocol is piece-oriented, matching the server interface: the
// workstation fetches descriptors, byte extents, miniatures and query
// results — never whole objects in one request.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"minos/internal/descriptor"
	img "minos/internal/image"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/pool"
	"minos/internal/server"
	"minos/internal/voice"
)

// Op codes. Numbers 1, 4 and 6 are retired (a single-shot query, miniature
// and mode op that OpQueryPlanned and OpMiniatures replaced) and are never
// reused; ops 13-16 are the server-push stream ops (see stream.go).
const (
	OpDescriptor = 2
	OpReadPiece  = 3
	// OpList answers every published id as a packed id list (idlist.go).
	OpList      = 5
	OpImageView = 7
	// OpVoicePreview ships a whole voice preview in one frame, capped at a
	// page-sized prefix (see server.voicePreview). The workstation plays it
	// as an audio-mode miniature passes through the screen; whole parts go
	// through OpVoiceStream.
	OpVoicePreview = 8
	OpStats        = 9
	// OpHello opens every connection: the client names the protocol version
	// it speaks and the server acknowledges it (see mux.go).
	OpHello = 10
	// OpMiniatures fetches up to MaxMiniatureBatch miniatures (with their
	// driving modes) in one round trip — the batched op behind the
	// sequential-browsing prefetch pipeline.
	OpMiniatures = 11
	// OpClusterMap fetches the server's cluster map (shard id → primary +
	// replica endpoints, map epoch) when the server belongs to a sharded
	// fleet. The request carries the client's current epoch; a server whose
	// map has not moved answers "unchanged" without resending the payload.
	OpClusterMap = 12
	// OpQueryPlanned evaluates a content query: conjunctive terms plus
	// attribute predicates (media kind, date range) pushed down to the
	// server's segmented index, where the planner picks the evaluation
	// strategy per segment. Request: [kind u8][dateFrom u32][dateTo u32]
	// [n u32][term strings]; response: a packed id list (idlist.go).
	OpQueryPlanned = 17
)

// MaxQueryTerms bounds the conjunction accepted by one OpQueryPlanned
// request; longer conjunctions are rejected rather than letting a client
// drive an arbitrarily wide plan.
const MaxQueryTerms = 64

// MaxMiniatureBatch bounds the ids accepted by one OpMiniatures request;
// larger batches are rejected rather than letting a client drive an
// arbitrarily large response.
const MaxMiniatureBatch = 1024

// miniEntryHint over-estimates one OpMiniatures response entry: present +
// mode + length prefix, plus the encoded bitmap of a miniature (both
// dimensions are bounded by server.MiniatureSize) with header slack. The
// hint keeps the batched response inside its initial pooled buffer, so the
// warm path never reallocates.
const miniEntryHint = 6 + 16 + (server.MiniatureSize/8+1)*(server.MiniatureSize+1)

// Response status codes. statusBusy distinguishes load shedding (the server
// refused to queue the request; retry after backoff) from application errors
// (statusErr, fatal to the call).
const (
	statusOK   = 0
	statusErr  = 1
	statusBusy = 2
)

// ErrShort reports a message that ended before its declared contents — a
// truncated or otherwise damaged frame. The condition is a transport
// integrity failure, not an application error, so it is classified
// retryable (see IsRetryable).
var ErrShort = errors.New("wire: short message")

var errShort = ErrShort

// Transport carries one request/response exchange.
type Transport interface {
	// RoundTrip hands the response over to the caller, which owns it from
	// then on (MergeIDLists recycles id-list responses into the pool).
	RoundTrip(req []byte) (resp []byte, err error)
	// Close releases the transport.
	Close() error
}

// ContextTransport is a Transport that can bound one exchange with a
// context: the call fails with the context's error when it is cancelled or
// its deadline passes.
type ContextTransport interface {
	Transport
	RoundTripCtx(ctx context.Context, req []byte) ([]byte, error)
}

// ContextPipeliner is a Pipeliner whose in-flight exchanges honour a
// context.
type ContextPipeliner interface {
	Pipeliner
	StartCtx(ctx context.Context, req []byte) Pending
}

// roundTripCtx performs one exchange honouring ctx, using the transport's
// native context support when it has any and a watchdog goroutine when it
// does not.
func roundTripCtx(ctx context.Context, t Transport, req []byte) ([]byte, error) {
	if ct, ok := t.(ContextTransport); ok {
		return ct.RoundTripCtx(ctx, req)
	}
	if ctx.Done() == nil {
		return t.RoundTrip(req)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch := make(chan muxResult, 1)
	go func() {
		resp, err := t.RoundTrip(req)
		ch <- muxResult{resp: resp, err: err}
	}()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// --- message building ---

func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

type cursor struct {
	data []byte
	pos  int
}

func (c *cursor) u8() (byte, error) {
	if c.pos >= len(c.data) {
		return 0, errShort
	}
	v := c.data[c.pos]
	c.pos++
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if c.pos+4 > len(c.data) {
		return 0, errShort
	}
	v := binary.BigEndian.Uint32(c.data[c.pos:])
	c.pos += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if c.pos+8 > len(c.data) {
		return 0, errShort
	}
	v := binary.BigEndian.Uint64(c.data[c.pos:])
	c.pos += 8
	return v, nil
}

func (c *cursor) str() (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	if c.pos+int(n) > len(c.data) {
		return "", errShort
	}
	s := string(c.data[c.pos : c.pos+int(n)])
	c.pos += int(n)
	return s, nil
}

// strView is str without the copy: the string shares the message's bytes,
// so it is valid only while the message is and must not be kept past the
// request that carried it.
func (c *cursor) strView() (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	if c.pos+int(n) > len(c.data) {
		return "", errShort
	}
	b := c.data[c.pos : c.pos+int(n)]
	c.pos += int(n)
	return unsafe.String(unsafe.SliceData(b), len(b)), nil
}

func (c *cursor) rest() []byte { return c.data[c.pos:] }

// Handler serves protocol requests against a server.
type Handler struct {
	Srv *server.Server

	// tenants hands out the per-connection fairness identities passed to
	// the server's admission gate and seek semaphore.
	tenants atomic.Uint64
}

// NewTenant allocates a fresh tenant identity. The serving loops call it
// once per accepted connection (and LocalTransport once per transport), so
// admission fairness is per session, not per request.
func (h *Handler) NewTenant() uint64 { return h.tenants.Add(1) }

// HandleAs processes one request message attributed to tenant and returns
// the response message.
func (h *Handler) HandleAs(tenant uint64, req []byte) []byte {
	c := &cursor{data: req}
	op, err := c.u8()
	if err != nil {
		return errResp(err)
	}
	// Device-bound ops pass the server's admission gate so an overloaded
	// server sheds work with a retryable busy response instead of queueing
	// without bound. Cheap in-memory ops (query, list, miniatures, stats)
	// are always served — they are what a degraded client needs most.
	switch op {
	case OpReadPiece, OpDescriptor, OpImageView:
		release, aerr := h.Srv.AdmitAs(tenant)
		if aerr != nil {
			return errResp(aerr)
		}
		defer release()
	}
	switch op {
	case OpQueryPlanned:
		kind, err := c.u8()
		if err != nil {
			return errResp(err)
		}
		if index.KindFilter(kind) > index.KindAudio {
			return errResp(fmt.Errorf("wire: unknown kind filter %d", kind))
		}
		from, err := c.u32()
		if err != nil {
			return errResp(err)
		}
		to, err := c.u32()
		if err != nil {
			return errResp(err)
		}
		n, err := c.u32()
		if err != nil {
			return errResp(err)
		}
		if n > MaxQueryTerms {
			return errResp(fmt.Errorf("wire: query of %d terms exceeds %d", n, MaxQueryTerms))
		}
		// The terms are views of req and the ids land in pooled scratch:
		// a warm query allocates nothing (TestAllocQueryPlannedServe).
		sc := queryScratchPool.Get().(*queryScratch)
		defer sc.release()
		q := index.Query{Kind: index.KindFilter(kind), DateFrom: from, DateTo: to, Terms: sc.terms[:0]}
		for i := uint32(0); i < n; i++ {
			s, err := c.strView()
			if err != nil {
				return errResp(err)
			}
			q.Terms = append(q.Terms, s)
		}
		sc.terms = q.Terms
		sc.ids = h.Srv.ContentIndex().Search(q, sc.ids[:0])
		return idsResp(sc.ids)
	case OpDescriptor:
		id, err := c.u64()
		if err != nil {
			return errResp(err)
		}
		d, dur, err := h.Srv.DescriptorAs(tenant, object.ID(id))
		if err != nil {
			return errResp(err)
		}
		return okResp(dur, d.Encode())
	case OpReadPiece:
		off, err := c.u64()
		if err != nil {
			return errResp(err)
		}
		length, err := c.u64()
		if err != nil {
			return errResp(err)
		}
		data, dur, err := h.Srv.ReadPieceAs(tenant, off, length)
		if err != nil {
			return errResp(err)
		}
		return okResp(dur, data)
	case OpMiniatures:
		n, err := c.u32()
		if err != nil {
			return errResp(err)
		}
		if n > MaxMiniatureBatch {
			return errResp(fmt.Errorf("wire: miniature batch of %d exceeds %d", n, MaxMiniatureBatch))
		}
		// The hot path of sequential browsing: every entry comes from the
		// encoded-frame cache and lands in one pooled, hint-sized response
		// buffer — steady state performs no heap allocation at all.
		out := newResp(4 + int(n)*miniEntryHint)
		out = appendU32(out, n)
		for i := uint32(0); i < n; i++ {
			id, err := c.u64()
			if err != nil {
				recycleResponse(out)
				return errResp(err)
			}
			payload, mode, ok := h.Srv.MiniatureEncoded(object.ID(id))
			if !ok {
				// Absent entries are in-band (present=0): one missing
				// miniature must not fail the whole batch.
				out = append(out, 0, byte(mode))
				continue
			}
			out = append(out, 1, byte(mode))
			out = appendU32(out, uint32(len(payload)))
			out = append(out, payload...)
		}
		return finishResp(out, statusOK, 0)
	case OpClusterMap:
		epoch, err := c.u64()
		if err != nil {
			return errResp(err)
		}
		curEpoch, mp, ok := h.Srv.ClusterMap()
		if !ok {
			return errResp(fmt.Errorf("wire: server is not part of a cluster"))
		}
		if epoch == curEpoch {
			return okResp(0, []byte{0}) // unchanged
		}
		out := newResp(1 + len(mp))
		out = append(out, 1)
		out = append(out, mp...)
		return finishResp(out, statusOK, 0)
	case OpImageView:
		id, err := c.u64()
		if err != nil {
			return errResp(err)
		}
		name, err := c.str()
		if err != nil {
			return errResp(err)
		}
		var rect [4]int
		for i := range rect {
			v, err := c.u32()
			if err != nil {
				return errResp(err)
			}
			rect[i] = int(int32(v))
		}
		bm, dur, err := h.Srv.ImageViewAs(tenant, object.ID(id), name, img.Rect{X: rect[0], Y: rect[1], W: rect[2], H: rect[3]})
		if err != nil {
			return errResp(err)
		}
		payload, err := descriptor.EncodePart(descriptor.PartBitmap, bm)
		bm.Release() // the extract is per-request; the encoding is a copy
		if err != nil {
			return errResp(err)
		}
		return okResp(dur, payload)
	case OpVoicePreview:
		id, err := c.u64()
		if err != nil {
			return errResp(err)
		}
		vp := h.Srv.VoicePreview(object.ID(id))
		if vp == nil {
			return errResp(fmt.Errorf("wire: no voice preview for object %d", id))
		}
		payload, err := descriptor.EncodePart(descriptor.PartVoice, vp)
		if err != nil {
			return errResp(err)
		}
		return okResp(0, payload)
	case OpList:
		return idsResp(h.Srv.IDs())
	case OpStats:
		return okResp(0, encodeStatsTagged(h.Srv.Stats()))
	default:
		return errResp(fmt.Errorf("wire: unknown op %d", op))
	}
}

// --- stats encoding ---
//
// The STATS payload is tagged: a marker byte, then repeated [u8 tag]
// [u64 value] fields in any order. Decoders skip unknown tags and tolerate
// absent ones, so a counter can be added without touching any other field.

const statsTagged = 0xF5

// Stats field tags. Append new counters with new tags — order on the wire
// does not matter.
const (
	statsTagPieceReads      = 1
	statsTagBytesOut        = 2
	statsTagCacheHits       = 3
	statsTagCacheMiss       = 4
	statsTagDeviceWaits     = 5
	statsTagDeviceWaitNanos = 6
	statsTagReadAheadBlocks = 7
	statsTagShed            = 8
	statsTagEncodedHits     = 9
	statsTagEncodedMiss     = 10
	statsTagPoolAllocs      = 11
	statsTagPoolRecycled    = 12
)

func encodeStatsTagged(st server.Stats) []byte {
	out := []byte{statsTagged}
	field := func(tag byte, v int64) {
		out = append(out, tag)
		out = appendU64(out, uint64(v))
	}
	field(statsTagPieceReads, st.PieceReads)
	field(statsTagBytesOut, st.BytesOut)
	field(statsTagCacheHits, st.CacheHits)
	field(statsTagCacheMiss, st.CacheMiss)
	field(statsTagDeviceWaits, st.DeviceWaits)
	field(statsTagDeviceWaitNanos, st.DeviceWaitNanos)
	// Deliberately out of tag order: tagged decoding must not care.
	field(statsTagShed, st.Shed)
	field(statsTagReadAheadBlocks, st.ReadAheadBlocks)
	field(statsTagEncodedHits, st.EncodedHits)
	field(statsTagEncodedMiss, st.EncodedMiss)
	field(statsTagPoolAllocs, st.PoolAllocs)
	field(statsTagPoolRecycled, st.PoolRecycled)
	return out
}

func decodeStatsTagged(payload []byte) (server.Stats, error) {
	var st server.Stats
	if len(payload) == 0 || payload[0] != statsTagged {
		return st, fmt.Errorf("wire: stats payload lacks the 0x%02X marker", statsTagged)
	}
	c := &cursor{data: payload, pos: 1} // skip the marker
	for c.pos < len(payload) {
		tag, err := c.u8()
		if err != nil {
			return st, err
		}
		v, err := c.u64()
		if err != nil {
			return st, err
		}
		switch tag {
		case statsTagPieceReads:
			st.PieceReads = int64(v)
		case statsTagBytesOut:
			st.BytesOut = int64(v)
		case statsTagCacheHits:
			st.CacheHits = int64(v)
		case statsTagCacheMiss:
			st.CacheMiss = int64(v)
		case statsTagDeviceWaits:
			st.DeviceWaits = int64(v)
		case statsTagDeviceWaitNanos:
			st.DeviceWaitNanos = int64(v)
		case statsTagReadAheadBlocks:
			st.ReadAheadBlocks = int64(v)
		case statsTagShed:
			st.Shed = int64(v)
		case statsTagEncodedHits:
			st.EncodedHits = int64(v)
		case statsTagEncodedMiss:
			st.EncodedMiss = int64(v)
		case statsTagPoolAllocs:
			st.PoolAllocs = int64(v)
		case statsTagPoolRecycled:
			st.PoolRecycled = int64(v)
		default:
			// Unknown tag: skip it.
		}
	}
	return st, nil
}

// idsResp builds an OK response carrying a packed id list (see idlist.go)
// directly in a pooled buffer sized exactly.
func idsResp(ids []object.ID) []byte {
	out := newResp(idListSize(ids))
	out = appendIDList(out, ids)
	return finishResp(out, statusOK, 0)
}

// queryScratch is a served planned query's working state, pooled: the term
// views and the slice the index searches into.
type queryScratch struct {
	terms []string
	ids   []object.ID
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// release returns the scratch to the pool, dropping the term views first:
// they alias a request frame that is about to be recycled.
func (sc *queryScratch) release() {
	clear(sc.terms)
	queryScratchPool.Put(sc)
}

// Responses are built in pooled buffers: newResp reserves the fixed header,
// the handler appends the payload, finishResp patches the header in place.
//
// Ownership rule: HandleAs's return value may be pool-backed. The TCP serve
// loop (muxConn) recycles it after the frame is written;
// LocalTransport hands it to the in-process client, which retains payload
// sub-slices of most responses, so the transport must never recycle. The
// one exception is an id list: MergeIDLists copies the ids out and is then
// the last holder, so it recycles the frame. Anything that is not provably
// the last holder just lets the GC have it.
const respHeader = 13 // [status u8][device time u64][payload length u32]

// newResp returns a pooled response buffer with room for sizeHint payload
// bytes and the header bytes reserved (an over-estimate merely rounds up a
// size class; an under-estimate falls back to append growth).
func newResp(sizeHint int) []byte {
	return pool.Bytes.Get(respHeader + sizeHint)[:respHeader]
}

// finishResp fills in the reserved header of a newResp buffer.
func finishResp(out []byte, status byte, dur time.Duration) []byte {
	out[0] = status
	binary.BigEndian.PutUint64(out[1:9], uint64(dur))
	binary.BigEndian.PutUint32(out[9:13], uint32(len(out)-respHeader))
	return out
}

// recycleResponse hands a HandleAs response back to the buffer pool. Only the
// last holder — a serve loop that has finished writing the frame and kept no
// sub-slice — may call it; calling it is always optional.
func recycleResponse(resp []byte) { pool.Bytes.Put(resp) }

func okResp(dur time.Duration, payload []byte) []byte {
	out := newResp(len(payload))
	out = append(out, payload...)
	return finishResp(out, statusOK, dur)
}

func errResp(err error) []byte {
	status := byte(statusErr)
	if errors.Is(err, server.ErrBusy) {
		status = statusBusy
	}
	msg := err.Error()
	out := newResp(len(msg))
	out = append(out, msg...)
	return finishResp(out, status, 0)
}

// Client is the workstation-side stub. Every call runs under a retry loop:
// failures classified retryable (see IsRetryable) are re-issued after an
// exponential backoff, reconnecting first (a fresh dial, HELLO included)
// when the failure means the connection is dead and a redial function is
// installed (EnableReconnect). All protocol ops are idempotent reads, so
// retrying is always safe.
type Client struct {
	mu     sync.Mutex
	t      Transport
	redial func() (Transport, error)
	retry  RetryPolicy
	// jitter is the backoff jitter source, hoisted out of the retry loop:
	// every retry of every call draws from this one generator (shareable
	// across clients via SetBackoffRand), so a fan-out of K concurrent
	// calls neither contends on a global lock nor allocates rand state.
	jitter *BackoffRand

	// reconnects counts transport replacements; guarded by mu with t, so
	// Reconnects reads the pair consistently.
	reconnects int64
}

// NewClient wraps a transport.
func NewClient(t Transport) *Client {
	return &Client{t: t, retry: RetryPolicy{}.withDefaults(), jitter: newDefaultBackoffRand()}
}

// Close releases the transport.
func (c *Client) Close() error { return c.Transport().Close() }

func (c *Client) policy() (RetryPolicy, *BackoffRand) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retry, c.jitter
}

// callCtx performs one request/response exchange under the retry loop,
// bounded by ctx.
func (c *Client) callCtx(ctx context.Context, req []byte) ([]byte, time.Duration, error) {
	_, payload, dur, err := c.exchangeCtx(ctx, req)
	return payload, dur, err
}

// exchangeCtx is callCtx that also returns the whole response the payload
// sits in. The transport hands the response over: the caller owns it.
func (c *Client) exchangeCtx(ctx context.Context, req []byte) (resp, payload []byte, dur time.Duration, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pol, rng := c.policy()
	var last error
	for attempt := 1; ; attempt++ {
		t := c.Transport()
		resp, err = roundTripCtx(ctx, t, req)
		if err == nil {
			payload, dur, err = parseResponse(resp)
			if err == nil {
				return resp, payload, dur, nil
			}
		}
		last = err
		if ctx.Err() != nil || !IsRetryable(err) || attempt >= pol.MaxAttempts {
			return nil, nil, 0, last
		}
		if NeedsReconnect(err) {
			if rerr := c.reconnect(t); rerr != nil {
				if errors.Is(rerr, errNoRedial) {
					// Without a redialer a dead connection stays dead:
					// retrying cannot help.
					return nil, nil, 0, last
				}
				// Redial failed (server still down); back off and try
				// dialing again on the next attempt.
				last = fmt.Errorf("wire: reconnect: %w", rerr)
			}
		}
		if serr := sleepCtx(ctx, pol.backoff(attempt, rng)); serr != nil {
			return nil, nil, 0, last
		}
	}
}

// startCtx launches a call without waiting for its response, pipelining
// over the transport when it supports that and falling back to a goroutine
// per call otherwise. Pipelined calls bypass the retry loop — the browse
// prefetcher treats their failures as cache misses and refetches in the
// foreground, which does retry.
func (c *Client) startCtx(ctx context.Context, req []byte) Pending {
	t := c.Transport()
	if cp, ok := t.(ContextPipeliner); ok {
		return cp.StartCtx(ctx, req)
	}
	if p, ok := t.(Pipeliner); ok {
		return p.Start(req)
	}
	ch := make(chan muxResult, 1)
	go func() {
		resp, err := roundTripCtx(ctx, t, req)
		ch <- muxResult{resp: resp, err: err}
	}()
	return &muxPending{m: &muxPendingState{ch: ch}}
}

// parseResponse splits a response message into payload and device time,
// converting server-reported errors. Busy responses (load shedding) wrap
// ErrServerBusy so the retry loop can classify them.
func parseResponse(resp []byte) ([]byte, time.Duration, error) {
	cur := &cursor{data: resp}
	status, err := cur.u8()
	if err != nil {
		return nil, 0, err
	}
	durN, err := cur.u64()
	if err != nil {
		return nil, 0, err
	}
	n, err := cur.u32()
	if err != nil {
		return nil, 0, err
	}
	if cur.pos+int(n) > len(resp) {
		return nil, 0, errShort
	}
	payload := cur.rest()[:n]
	switch status {
	case statusErr:
		return nil, 0, fmt.Errorf("wire: server: %s", payload)
	case statusBusy:
		return nil, 0, fmt.Errorf("%w: %s", ErrServerBusy, payload)
	}
	return payload, time.Duration(durN), nil
}

// QueryCtx evaluates a term-only content query on the server, bounded by
// ctx: a planned query without attribute predicates.
func (c *Client) QueryCtx(ctx context.Context, terms ...string) ([]object.ID, time.Duration, error) {
	return c.QueryPlannedCtx(ctx, index.Query{Terms: terms})
}

// encodeQueryPlannedReq builds an OpQueryPlanned request message.
func encodeQueryPlannedReq(q index.Query) []byte {
	req := []byte{OpQueryPlanned, byte(q.Kind)}
	req = appendU32(req, q.DateFrom)
	req = appendU32(req, q.DateTo)
	req = appendU32(req, uint32(len(q.Terms)))
	for _, t := range q.Terms {
		req = appendStr(req, t)
	}
	return req
}

// QueryPlannedCtx evaluates a planned content query — conjunctive terms
// plus attribute predicates — on the server's segmented index, bounded by
// ctx.
func (c *Client) QueryPlannedCtx(ctx context.Context, q index.Query) ([]object.ID, time.Duration, error) {
	l, dur, err := c.IDListCtx(ctx, &q)
	if err != nil {
		return nil, dur, err
	}
	return MergeIDLists(l), dur, nil
}

// DescriptorCtx fetches and parses an object descriptor, bounded by ctx.
func (c *Client) DescriptorCtx(ctx context.Context, id object.ID) (*descriptor.Descriptor, time.Duration, error) {
	req := appendU64([]byte{OpDescriptor}, uint64(id))
	payload, dur, err := c.callCtx(ctx, req)
	if err != nil {
		return nil, dur, err
	}
	d, err := descriptor.Parse(payload)
	return d, dur, err
}

// ReadPieceCtx fetches an archiver-absolute byte extent, bounded by ctx.
func (c *Client) ReadPieceCtx(ctx context.Context, off, length uint64) ([]byte, time.Duration, error) {
	req := appendU64([]byte{OpReadPiece}, off)
	req = appendU64(req, length)
	return c.callCtx(ctx, req)
}

// ObjectPieceCtx fetches a byte extent of the archive holding object id.
// On the single-server client the id is advisory — one server owns every
// object, so it reduces to ReadPieceCtx — but it makes the call routable:
// a fleet client uses the same signature to send the read to the shard
// whose archive the descriptor's offsets are absolute in.
func (c *Client) ObjectPieceCtx(ctx context.Context, _ object.ID, off, length uint64) ([]byte, time.Duration, error) {
	return c.ReadPieceCtx(ctx, off, length)
}

// MiniatureResult is one entry of a batched miniature fetch.
type MiniatureResult struct {
	ID object.ID
	// OK reports whether the server has a miniature for the id; Mini is
	// nil otherwise.
	OK   bool
	Mini *img.Bitmap
	// Mode is the object's driving mode, shipped with the miniature so
	// sequential browsing does not pay a second round trip per step to
	// learn whether a voice preview applies.
	Mode object.Mode
}

// MiniaturesCtx fetches up to MaxMiniatureBatch miniatures (plus driving
// modes) in a single round trip, bounded by ctx; results align with ids.
// Missing miniatures come back with OK=false rather than failing the batch.
// This path runs under the retry loop; the pipelined StartMiniatures does
// not.
func (c *Client) MiniaturesCtx(ctx context.Context, ids []object.ID) ([]MiniatureResult, time.Duration, error) {
	payload, dur, err := c.callCtx(ctx, encodeMiniaturesReq(ids))
	if err != nil {
		return nil, dur, err
	}
	res, err := decodeMiniatures(ids, payload)
	return res, dur, err
}

// pendingMiniatures is an in-flight batched miniature fetch.
type pendingMiniatures struct {
	ids []object.ID
	p   Pending
}

func encodeMiniaturesReq(ids []object.ID) []byte {
	req := appendU32([]byte{OpMiniatures}, uint32(len(ids)))
	for _, id := range ids {
		req = appendU64(req, uint64(id))
	}
	return req
}

// MiniatureBatch is an in-flight batched miniature fetch, abstracted so
// backend-agnostic consumers (the workstation prefetcher) can pipeline
// batches without naming the concrete client that issued them.
type MiniatureBatch interface {
	// Wait collects the batch's results.
	Wait() ([]MiniatureResult, time.Duration, error)
}

// StartMiniatures launches a batched miniature fetch without waiting — the
// browse prefetcher keeps several of these in flight on a pipelined
// transport while the user views the current miniature.
func (c *Client) StartMiniatures(ctx context.Context, ids []object.ID) MiniatureBatch {
	return &pendingMiniatures{ids: ids, p: c.startCtx(ctx, encodeMiniaturesReq(ids))}
}

// Wait collects the batch's results.
func (pm *pendingMiniatures) Wait() ([]MiniatureResult, time.Duration, error) {
	resp, err := pm.p.Wait()
	if err != nil {
		return nil, 0, err
	}
	payload, dur, err := parseResponse(resp)
	if err != nil {
		return nil, dur, err
	}
	res, err := decodeMiniatures(pm.ids, payload)
	return res, dur, err
}

// decodeMiniatures parses an OpMiniatures response payload against the
// request's id list.
func decodeMiniatures(ids []object.ID, payload []byte) ([]MiniatureResult, error) {
	cur := &cursor{data: payload}
	n, err := cur.u32()
	if err != nil {
		return nil, err
	}
	if int(n) != len(ids) {
		return nil, fmt.Errorf("wire: miniature batch returned %d entries for %d ids", n, len(ids))
	}
	out := make([]MiniatureResult, 0, len(ids))
	for i := range ids {
		present, err := cur.u8()
		if err != nil {
			return nil, err
		}
		mode, err := cur.u8()
		if err != nil {
			return nil, err
		}
		r := MiniatureResult{ID: ids[i], Mode: object.Mode(mode)}
		if present != 0 {
			ln, err := cur.u32()
			if err != nil {
				return nil, err
			}
			if cur.pos+int(ln) > len(payload) {
				return nil, errShort
			}
			raw := payload[cur.pos : cur.pos+int(ln)]
			cur.pos += int(ln)
			v, err := descriptor.DecodePart(descriptor.PartBitmap, raw)
			if err != nil {
				return nil, err
			}
			r.OK = true
			r.Mini = v.(*img.Bitmap)
		}
		out = append(out, r)
	}
	return out, nil
}

// ImageViewCtx fetches only the given rectangle of an image part (§2
// views), bounded by ctx: the response carries the view's pixels, not the
// whole image.
func (c *Client) ImageViewCtx(ctx context.Context, id object.ID, name string, r img.Rect) (*img.Bitmap, time.Duration, error) {
	req := appendU64([]byte{OpImageView}, uint64(id))
	req = appendStr(req, name)
	for _, v := range []int{r.X, r.Y, r.W, r.H} {
		req = appendU32(req, uint32(int32(v)))
	}
	payload, dur, err := c.callCtx(ctx, req)
	if err != nil {
		return nil, dur, err
	}
	v, err := descriptor.DecodePart(descriptor.PartBitmap, payload)
	if err != nil {
		return nil, dur, err
	}
	return v.(*img.Bitmap), dur, nil
}

// VoicePreviewCtx fetches the voice preview of an audio-mode object, played
// "as the miniature passes through the screen" (§5), bounded by ctx.
func (c *Client) VoicePreviewCtx(ctx context.Context, id object.ID) (*voice.Part, time.Duration, error) {
	req := appendU64([]byte{OpVoicePreview}, uint64(id))
	payload, dur, err := c.callCtx(ctx, req)
	if err != nil {
		return nil, dur, err
	}
	v, err := descriptor.DecodePart(descriptor.PartVoice, payload)
	if err != nil {
		return nil, dur, err
	}
	return v.(*voice.Part), dur, nil
}

// ListCtx returns all published object ids, bounded by ctx.
func (c *Client) ListCtx(ctx context.Context) ([]object.ID, time.Duration, error) {
	l, dur, err := c.IDListCtx(ctx, nil)
	if err != nil {
		return nil, dur, err
	}
	return MergeIDLists(l), dur, nil
}

// ModeCtx returns an object's driving mode: a batch of one on the
// OpMiniatures path, which ships modes alongside miniatures.
// Every adopted object carries a miniature, so a batch entry with OK=false
// means the object is unknown.
func (c *Client) ModeCtx(ctx context.Context, id object.ID) (object.Mode, error) {
	res, _, err := c.MiniaturesCtx(ctx, []object.ID{id})
	if err != nil {
		return 0, err
	}
	if !res[0].OK {
		return 0, fmt.Errorf("wire: unknown object %d", id)
	}
	return res[0].Mode, nil
}

// StatsCtx fetches the server's request/cache/contention counters — the
// load simulation and cmd/minos-server use it to report device contention.
func (c *Client) StatsCtx(ctx context.Context) (server.Stats, error) {
	payload, _, err := c.callCtx(ctx, []byte{OpStats})
	if err != nil {
		return server.Stats{}, err
	}
	return decodeStatsTagged(payload)
}

// ClusterMapCtx fetches the server's encoded cluster map when it has moved
// past the client's epoch. changed=false (with a nil payload) means the
// server's map still has that epoch; an error means the server is not part
// of a cluster (or the call failed). The payload encoding belongs to
// internal/cluster — the wire layer ships it opaquely.
func (c *Client) ClusterMapCtx(ctx context.Context, epoch uint64) (payload []byte, changed bool, err error) {
	req := appendU64([]byte{OpClusterMap}, epoch)
	resp, _, err := c.callCtx(ctx, req)
	if err != nil {
		return nil, false, err
	}
	if len(resp) < 1 {
		return nil, false, errShort
	}
	if resp[0] == 0 {
		return nil, false, nil
	}
	return resp[1:], true, nil
}

// Fetch adapts the client into a descriptor.FetchFunc, accumulating device
// time into dur if non-nil.
func (c *Client) Fetch(dur *time.Duration) descriptor.FetchFunc {
	return func(ref descriptor.PartRef) ([]byte, error) {
		data, t, err := c.ReadPieceCtx(context.Background(), ref.Offset, ref.Length)
		if dur != nil {
			*dur += t
		}
		return data, err
	}
}

// --- framing over byte streams (TCP) ---

// WriteFrame writes a length-prefixed message.
func WriteFrame(w io.Writer, msg []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// ReadFrame reads one length-prefixed message (up to 64 MiB).
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	n, err := readFrameLen(r, &hdr)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// readFrameLen reads a frame's length prefix through hdr (a per-connection
// [4]byte so the header read does not allocate) and bounds it.
func readFrameLen(r io.Reader, hdr *[4]byte) (int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > 64<<20 {
		return 0, fmt.Errorf("wire: oversized frame %d", n)
	}
	return int(n), nil
}

// readFramePooled is ReadFrame with the message read into a pooled buffer.
// The caller owns the frame and recycles it when done.
func readFramePooled(r io.Reader, hdr *[4]byte) ([]byte, error) {
	n, err := readFrameLen(r, hdr)
	if err != nil {
		return nil, err
	}
	msg := pool.Bytes.Get(n)
	if _, err := io.ReadFull(r, msg); err != nil {
		pool.Bytes.Put(msg)
		return nil, err
	}
	return msg, nil
}

// writeFramePooled writes msg as one length-prefixed frame with a single
// Write call, staging header and body in a pooled buffer (WriteFrame's two
// writes cost a syscall each on a TCP conn).
func writeFramePooled(w io.Writer, msg []byte) error {
	out := pool.Bytes.Get(4 + len(msg))
	binary.BigEndian.PutUint32(out, uint32(len(msg)))
	copy(out[4:], msg)
	_, err := w.Write(out)
	pool.Bytes.Put(out)
	return err
}
