package wire

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"minos/internal/index"
	"minos/internal/object"
)

func BenchmarkLocalRoundTrip(b *testing.B) {
	c, _ := localClient(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.QueryCtx(context.Background(), "lung"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDescriptorFetch(b *testing.B) {
	c, _ := localClient(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DescriptorCtx(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePieceReads8ClientsParallel measures cache-hit piece-read
// throughput over TCP with 8 concurrent client connections — the wall-clock
// half of the E-CONC experiment (the vclock half is
// TestRunContentionModels). Throughput scales with available cores,
// since a cache-hit handler is pure CPU.
func BenchmarkServePieceReads8ClientsParallel(b *testing.B) {
	srv := testServer(b)
	const (
		region  = 128 * 2048 // warmed byte range (fits the 256-block cache)
		piece   = 64 * 1024  // per-request read size
		clients = 8
	)
	if _, _, err := srv.ReadPiece(0, region); err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go ServeWith(l, &Handler{Srv: srv}, ServeOpts{})

	cs := make([]*Client, clients)
	for i := range cs {
		tp, err := DialMux(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		cs[i] = NewClient(tp)
		defer cs[i].Close()
	}
	b.SetBytes(piece)
	b.ResetTimer()
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for _, c := range cs {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				off := uint64(i*piece) % (region - piece)
				if _, _, err := c.ReadPieceCtx(context.Background(), off, piece); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// BenchmarkMiniatureServeWarm measures the steady-state server handler path
// for a batched miniature request: every published miniature already built,
// every request identical — the shape of sequential browsing under load.
func BenchmarkMiniatureServeWarm(b *testing.B) {
	h := &Handler{Srv: testServer(b)}
	req := encodeMiniaturesReq([]object.ID{1, 2, 3})
	if resp := h.HandleAs(0, req); resp[0] != statusOK {
		b.Fatalf("warmup response status %d", resp[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := h.HandleAs(0, req)
		if resp[0] != statusOK {
			b.Fatal("bad response")
		}
		recycleResponse(resp) // as the serve loop does after the write
	}
}

// BenchmarkQueryPlannedServe measures the serving half of a planned query:
// one common-term request against a 100k-document index (about 4.8k hits),
// searched into pooled scratch and packed into a pooled response, which is
// recycled as the serve loop does after the write.
func BenchmarkQueryPlannedServe(b *testing.B) {
	h := &Handler{Srv: synthIndexServer(b, 100_000)}
	req := encodeQueryPlannedReq(index.Query{Terms: []string{"c7"}})
	resp := h.HandleAs(0, req)
	payload, _, err := parseResponse(resp)
	if err != nil {
		b.Fatal(err)
	}
	hits := binary.BigEndian.Uint32(payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recycleResponse(h.HandleAs(0, req))
	}
	b.ReportMetric(float64(hits), "hits/op")
}

// BenchmarkVoiceStreamTCP is the stream layer's microbenchmark: one 0.9 MB
// spoken part per iteration over loopback TCP — ServeWith on one end,
// DialMux on the other, the workstation's 16-chunk window, block cache warm
// — so what it times is frames, credit and copies, not the device model.
func BenchmarkVoiceStreamTCP(b *testing.B) {
	const pcmBytes = 900 << 10
	srv, id := bigVoiceServer(b, pcmBytes, 8192)
	tp, err := DialMux(serveSrv(b, srv))
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()
	play := func() {
		_, sc, err := c.VoiceStreamCtx(context.Background(), id, 0, 16*StreamChunkBytes)
		if err != nil {
			b.Fatal(err)
		}
		defer sc.Close()
		n := 0
		for {
			ch, err := sc.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += len(ch.Data)
			sc.Grant(len(ch.Data))
		}
		if n != pcmBytes {
			b.Fatalf("streamed %d bytes, want %d", n, pcmBytes)
		}
	}
	play() // warm the block cache and the pools
	b.SetBytes(pcmBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		play()
	}
}

var pcmSink []int16

// BenchmarkAppendPCMSamples decodes one stream chunk into a reused buffer,
// as the playback loop does per chunk.
func BenchmarkAppendPCMSamples(b *testing.B) {
	chunk := make([]byte, StreamChunkBytes)
	for i := range chunk {
		chunk[i] = byte(i * 7)
	}
	var dst []int16
	b.SetBytes(StreamChunkBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendPCMSamples(dst[:0], chunk)
	}
	pcmSink = dst
}
