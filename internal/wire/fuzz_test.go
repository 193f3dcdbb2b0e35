package wire

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"minos/internal/index"
)

// fuzzHandler is built once per fuzz process: the server is
// concurrency-safe, so sharing it across iterations (and across the fuzz
// engine's parallel workers) is part of what is being tested.
var (
	fuzzOnce sync.Once
	fuzzH    *Handler
)

func fuzzHandler(t testing.TB) *Handler {
	fuzzOnce.Do(func() { fuzzH = &Handler{Srv: testServer(t)} })
	return fuzzH
}

// FuzzHandleRequest feeds arbitrary request bytes to the protocol handler:
// it must always return a response (ok or error), never panic, and never
// let a client-controlled count or length drive an oversized allocation.
// The seed corpus covers every op, the retired op numbers 1, 4 and 6 (which
// must answer "unknown op" whatever follows them) and the historic
// crashers: a ReadPiece length beyond the device (makeslice overflow) and a
// query term count in the billions (preallocation overflow).
func FuzzHandleRequest(f *testing.F) {
	// Well-formed requests for every op, mirroring the client encoders.
	f.Add([]byte{OpList})
	f.Add([]byte{OpStats})
	f.Add(appendU64([]byte{OpDescriptor}, 1))
	f.Add(appendU64([]byte{4}, 3)) // retired single-shot miniature
	f.Add(appendU64([]byte{OpVoicePreview}, 3))
	f.Add(appendU64([]byte{6}, 3)) // retired single-shot mode
	f.Add(appendU64(appendU64([]byte{OpReadPiece}, 0), 4096))
	f.Add(appendStr(appendU32([]byte{1}, 1), "lung")) // retired term-only query
	f.Add(encodeQueryPlannedReq(index.Query{Terms: []string{"lung"}, Kind: index.KindVisual}))
	viewReq := appendStr(appendU64([]byte{OpImageView}, 3), "map")
	for _, v := range []uint32{0, 0, 50, 50} {
		viewReq = appendU32(viewReq, v)
	}
	f.Add(viewReq)
	// Historic crashers and malformed frames.
	f.Add(appendU64(appendU64([]byte{OpReadPiece}, 1<<60), 1<<60)) // off+len overflow
	f.Add(appendU64(appendU64([]byte{OpReadPiece}, 0), 1<<40))     // len beyond device
	f.Add(appendU32([]byte{1}, 0xffffffff))                        // 4 G terms claimed of a retired op
	f.Add(appendU32(append([]byte{OpQueryPlanned}, make([]byte, 9)...), 0xffffffff))
	f.Add([]byte{OpDescriptor, 1, 2}) // truncated id
	f.Add([]byte{})
	f.Add([]byte{99})
	f.Add([]byte{1})
	f.Add([]byte{4})
	f.Add([]byte{6})
	f.Add(appendU32([]byte{OpHello}, protocolVersion))
	f.Add(appendU32([]byte{OpHello}, 2))          // a version nothing speaks
	f.Add(appendU32([]byte{OpHello}, 0xffffffff)) // absurd version claim
	batchReq := appendU32([]byte{OpMiniatures}, 3)
	for _, id := range []uint64{3, 42, 1} {
		batchReq = appendU64(batchReq, id)
	}
	f.Add(batchReq)
	f.Add(appendU32([]byte{OpMiniatures}, 0xffffffff)) // 4 G miniatures claimed
	f.Add(appendU32([]byte{OpMiniatures}, 2))          // count 2, zero ids

	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, req []byte) {
		resp := h.HandleAs(0, req)
		if len(resp) == 0 {
			t.Fatalf("empty response for request %v", req)
		}
		if resp[0] != statusOK && resp[0] != statusErr {
			t.Fatalf("response status %d", resp[0])
		}
		// Retired numbers, and HELLO, which only a connection's opening
		// exchange answers (acceptHello), never the request handler.
		if len(req) > 0 && (req[0] == 1 || req[0] == 4 || req[0] == 6 || req[0] == OpHello) {
			if resp[0] != statusErr || !bytes.Contains(resp[respHeader:], []byte("unknown op")) {
				t.Fatalf("op %d answered %q, want unknown op", req[0], resp)
			}
		}
	})
}

// FuzzFrameRoundTrip checks the length-prefixed framing: every message
// survives a write/read round trip, and ReadFrame never panics or
// over-allocates on arbitrary (truncated, oversized, hostile) input.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte("hello frames"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})       // 4 GiB length claim
	f.Add([]byte{0x00, 0x00, 0x00, 0x04, 1, 2}) // truncated body
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes as a frame stream: must not panic; errors ok.
		if msg, err := ReadFrame(bytes.NewReader(data)); err == nil {
			// A parseable frame must round-trip identically.
			var buf bytes.Buffer
			if werr := WriteFrame(&buf, msg); werr != nil {
				t.Fatalf("WriteFrame(%d bytes): %v", len(msg), werr)
			}
			got, rerr := ReadFrame(&buf)
			if rerr != nil || !bytes.Equal(got, msg) {
				t.Fatalf("round trip diverged: %v", rerr)
			}
		}
		// And the payload itself always frames cleanly.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, data); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		got, err := ReadFrame(&buf)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("payload round trip: %v", err)
		}
	})
}

// staticTransport returns one canned response to any request.
type staticTransport struct{ resp []byte }

func (s *staticTransport) RoundTrip([]byte) ([]byte, error) { return s.resp, nil }
func (s *staticTransport) Close() error                     { return nil }

// FuzzClientResponse feeds arbitrary response bytes to the client-side
// decoders (status/duration/payload framing, id lists, stats): a hostile
// or corrupt server must produce errors, not panics or huge allocations.
func FuzzClientResponse(f *testing.F) {
	f.Add(okResp(0, appendU32(nil, 0)))
	f.Add(okResp(0, appendU64(appendU32(nil, 2), 7))) // count 2, one id
	f.Add(okResp(0, appendU32(nil, 0xffffffff)))      // 4 G ids claimed
	f.Add(errResp(errShort))
	f.Add([]byte{})
	f.Add([]byte{statusOK})
	f.Fuzz(func(t *testing.T, resp []byte) {
		c := NewClient(&staticTransport{resp: resp})
		c.ListCtx(context.Background())    // id-list decoding
		c.StatsCtx(context.Background())   // stats decoding
		c.ModeCtx(context.Background(), 1) // fixed-size payload decoding
	})
}

// FuzzMuxDemux drives the frame demultiplexer with hostile frames:
// truncated, unknown-id and duplicate frames must be dropped without
// panicking, every registered call must be resolved exactly once (by
// delivery or by failAll), and the pending table must end empty — a leak
// here is a goroutine stuck in Wait forever on a real connection.
func FuzzMuxDemux(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{0x00}, uint8(1))      // truncated id
	f.Add(appendU32(nil, 1), uint8(2)) // bare id, no body
	f.Add(append(appendU32(nil, 2), 0xAB, 0xCD), uint8(4))
	f.Add(append(appendU32(nil, 99), 0xAB), uint8(1)) // unknown id
	dup := append(appendU32(nil, 1), 0x01)
	f.Add(append(dup, dup...), uint8(2)) // same id twice in one stream
	f.Fuzz(func(t *testing.T, stream []byte, nCalls uint8) {
		d := newDemux()
		n := int(nCalls % 8)
		chans := make(map[uint32]chan muxResult, n)
		for i := 0; i < n; i++ {
			id := uint32(i + 1)
			ch, err := d.register(id)
			if err != nil {
				t.Fatalf("register(%d): %v", id, err)
			}
			chans[id] = ch
		}
		// Split the fuzz input into frames (first byte = length of next
		// frame) and deliver each; any byte soup must be survivable.
		delivered := 0
		for len(stream) > 0 {
			flen := int(stream[0])
			if flen > len(stream)-1 {
				flen = len(stream) - 1
			}
			if d.deliver(stream[1 : 1+flen]) {
				delivered++
			}
			stream = stream[1+flen:]
		}
		if delivered > n {
			t.Fatalf("delivered %d frames to %d pending calls", delivered, n)
		}
		// Connection death: every still-pending call must resolve, and
		// the table must be empty with registration poisoned.
		d.failAll(ErrTransportClosed)
		if got := d.pendingLen(); got != 0 {
			t.Fatalf("%d pending calls leaked", got)
		}
		if _, err := d.register(1000); err == nil {
			t.Fatal("register succeeded after failAll")
		}
		for id, ch := range chans {
			select {
			case <-ch:
			default:
				t.Fatalf("call %d never resolved", id)
			}
		}
	})
}
