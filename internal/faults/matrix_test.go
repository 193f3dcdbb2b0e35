package faults_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"minos/internal/faults"
	"minos/internal/object"
	"minos/internal/text"
	"minos/internal/voice"
	"minos/internal/wire"
)

// matrixSpoken is the id of the spoken object the stream cells play.
const matrixSpoken = object.ID(9)

// startMatrixServer serves four visual objects and one spoken object on
// loopback and returns the spoken part's archived PCM bytes.
func startMatrixServer(t *testing.T) (addr string, pcm []byte, stop func()) {
	t.Helper()
	srv := testServer(t, 4)
	seg, err := text.Parse(strings.Repeat("voice archive rhythm presentation workstation. ", 12) + "\n")
	if err != nil {
		t.Fatal(err)
	}
	syn := voice.Synthesize(text.Flatten(seg), voice.DefaultSpeaker(), 4000)
	o, err := object.NewBuilder(matrixSpoken, "spoken", object.Audio).VoicePart(syn.Part).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish(o); err != nil {
		t.Fatal(err)
	}
	info, _, err := srv.VoicePCMInfoAs(0, matrixSpoken)
	if err != nil {
		t.Fatal(err)
	}
	if info.Bytes < 16*wire.StreamChunkBytes {
		t.Fatalf("spoken part is only %d PCM bytes; too short for the stream cells", info.Bytes)
	}
	pcm, _, err = srv.ReadPieceAs(0, info.Off, info.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go wire.ServeWith(l, &wire.Handler{Srv: srv}, wire.ServeOpts{})
	return l.Addr().String(), pcm, func() { l.Close() }
}

// waitGoroutines polls until the goroutine count settles back to at most
// base+slack, failing with a stack dump if it never does.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d+%d\n%s", runtime.NumGoroutine(), base, slack, buf[:n])
}

// currentMux reaches the multiplexed connection under the client's
// fault-injected transport.
func currentMux(t *testing.T, c *wire.Client) *wire.MuxTransport {
	t.Helper()
	return c.Transport().(*faults.Transport).Unwrap().(*wire.MuxTransport)
}

// blockingCalls is the browse-shaped mix of blocking calls: every one runs
// under the client's retry loop and must come back correct.
func blockingCalls(t *testing.T, c *wire.Client, _ []byte) {
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		ids, _, err := c.QueryCtx(ctx, "survey")
		if err != nil {
			t.Fatalf("call %d query: %v", i, err)
		}
		if len(ids) != 4 {
			t.Fatalf("call %d: %d hits, want 4", i, len(ids))
		}
		id := object.ID(i%4 + 1)
		res, _, err := c.MiniaturesCtx(ctx, []object.ID{id})
		if err != nil {
			t.Fatalf("call %d miniature: %v", i, err)
		}
		if !res[0].OK {
			t.Fatalf("call %d: no miniature for %d", i, id)
		}
		if res[0].Mini.PopCount() == 0 {
			t.Fatalf("call %d: blank miniature", i)
		}
		if mode, err := c.ModeCtx(ctx, id); err != nil || mode != object.Visual {
			t.Fatalf("call %d: mode = %v, %v", i, mode, err)
		}
	}
}

// pipelinedBatches keeps three miniature batches in flight at a time, the
// way the browse prefetcher does. Pipelined calls bypass the retry loop, so
// a fault may fail one — retryably — and the foreground refetch (which does
// retry) must then succeed.
func pipelinedBatches(t *testing.T, c *wire.Client, _ []byte) {
	ctx := context.Background()
	batches := [][]object.ID{{1, 2}, {3, 4}, {2, 42}}
	for i := 0; i < 20; i++ {
		var inflight []wire.MiniatureBatch
		for _, ids := range batches {
			inflight = append(inflight, c.StartMiniatures(ctx, ids))
		}
		for b, pm := range inflight {
			res, _, err := pm.Wait()
			if err != nil {
				if !wire.IsRetryable(err) {
					t.Fatalf("round %d batch %d: fatal error from an injected fault: %v", i, b, err)
				}
				if res, _, err = c.MiniaturesCtx(ctx, batches[b]); err != nil {
					t.Fatalf("round %d batch %d refetch: %v", i, b, err)
				}
			}
			for k, r := range res {
				if want := batches[b][k]; r.ID != want || r.OK != (want != 42) || (r.OK && r.Mini.PopCount() == 0) {
					t.Fatalf("round %d batch %d entry %d = %+v", i, b, k, r)
				}
			}
		}
	}
}

// voiceStream plays the spoken part over a server-push stream sharing the
// connection with faulted blocking calls, one call per chunk. Faults on the
// calls must not disturb the stream; a reset kills the connection under it,
// which must surface as a reconnect-class error, and the stream resumes on
// the client's fresh connection at the first undelivered byte.
func voiceStream(t *testing.T, c *wire.Client, pcm []byte) {
	ctx := context.Background()
	var (
		sc  wire.StreamConn
		got []byte
	)
	for {
		if sc == nil {
			info, conn, err := wire.NewClient(currentMux(t, c)).VoiceStreamCtx(ctx, matrixSpoken, uint64(len(got)), 2*wire.StreamChunkBytes)
			if err != nil {
				t.Fatalf("open at %d: %v", len(got), err)
			}
			if info.TotalBytes != uint64(len(pcm)) {
				t.Fatalf("stream total %d, want %d", info.TotalBytes, len(pcm))
			}
			sc = conn
		}
		ch, err := sc.Recv()
		if err == io.EOF {
			sc.Close()
			break
		}
		if err != nil {
			if !wire.NeedsReconnect(err) {
				t.Fatalf("stream broke at %d with a non-reconnect error: %v", len(got), err)
			}
			sc.Close()
			sc = nil
		} else {
			if ch.Offset != uint64(len(got)) {
				t.Fatalf("chunk at %d, want contiguous %d", ch.Offset, len(got))
			}
			got = append(got, ch.Data...)
			sc.Grant(len(ch.Data))
		}
		// The faulted call; after a reset its retry loop is what redials.
		if ids, _, err := c.ListCtx(ctx); err != nil || len(ids) != 5 {
			t.Fatalf("list beside the stream at %d = %v, %v", len(got), ids, err)
		}
	}
	if !bytes.Equal(got, pcm) {
		t.Fatalf("streamed %d bytes differ from the archived %d", len(got), len(pcm))
	}
}

// TestFaultMatrix drives each call shape the workstation puts on the wire
// through a retrying, reconnecting client under each injected fault. Every
// cell must end with correct results, no pending call or open stream left
// on any connection it dialed, and zero leaked goroutines.
func TestFaultMatrix(t *testing.T) {
	shapes := []struct {
		name string
		run  func(t *testing.T, c *wire.Client, pcm []byte)
	}{
		{"blocking", blockingCalls},
		{"batch", pipelinedBatches},
		{"stream", voiceStream},
	}
	faultCases := []struct {
		name string
		cfg  faults.Config
	}{
		{"drop", faults.Config{Seed: 11, Drop: 0.12, DropFor: 100 * time.Microsecond}},
		{"truncate", faults.Config{Seed: 12, Truncate: 0.12}},
		{"corrupt", faults.Config{Seed: 14, Corrupt: 0.12}},
		{"reset", faults.Config{Seed: 13, Reset: 0.08}},
		{"stall", faults.Config{Seed: 15, Stall: 0.12, StallFor: 200 * time.Microsecond}},
	}
	for _, sh := range shapes {
		for _, fc := range faultCases {
			t.Run(sh.name+"/"+fc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				addr, pcm, stop := startMatrixServer(t)
				inj := faults.New(fc.cfg)
				var dialed []*wire.MuxTransport
				redial := inj.WrapRedial(func() (wire.Transport, error) {
					m, err := wire.DialMux(addr)
					if err != nil {
						return nil, err
					}
					dialed = append(dialed, m)
					return m, nil
				})
				first, err := redial()
				if err != nil {
					t.Fatal(err)
				}
				c := wire.NewClient(first)
				c.SetRetryPolicy(wire.RetryPolicy{MaxAttempts: 8, BaseDelay: 500 * time.Microsecond, MaxDelay: 10 * time.Millisecond})
				c.EnableReconnect(redial)

				sh.run(t, c, pcm)

				if st := inj.Stats(); st.Drops+st.Truncates+st.Corrupts+st.Resets+st.Stalls == 0 {
					t.Fatalf("no fault fired: %+v", st)
				}
				if fc.cfg.Reset > 0 && c.Reconnects() == 0 {
					t.Fatal("reset cell never reconnected")
				}
				for i, m := range dialed {
					if n := m.PendingCalls(); n != 0 {
						t.Fatalf("connection %d: %d pending calls leaked", i, n)
					}
					if n := m.OpenStreams(); n != 0 {
						t.Fatalf("connection %d: %d streams leaked", i, n)
					}
				}
				c.Close()
				stop()
				waitGoroutines(t, base)
			})
		}
	}
}
