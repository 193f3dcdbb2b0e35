package minos

import (
	"context"
	"net"
	"testing"
	"time"

	"minos/internal/core"
	"minos/internal/demo"
	"minos/internal/screen"
	"minos/internal/vclock"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// E-PIPE: pipelined wire protocol + miniature prefetch vs the lock-step
// browse loop. The paper's §5 worries that "response times ... may become
// intolerable" when many delivery requests queue behind one another; the
// pipeline attacks the per-step link round trips: batched miniature
// fetches (one round trip returns K miniatures, mode included) issued
// ahead of the cursor, overlapping delivery with viewing.

const (
	epipeDepth = 8 // prefetch depth N (acceptance floor: 4)
	epipeBatch = 6 // miniatures per round trip K (acceptance floor: 4)
)

// epipeBrowse runs one full sequential browse and returns per-miniature
// link statistics.
func epipeBrowse(t testing.TB, sess *workstation.Session, lt *wire.LocalTransport, term string) (steps int, rts int64, linkTime time.Duration) {
	t.Helper()
	n, err := sess.QueryCtx(context.Background(), term)
	if err != nil {
		t.Fatal(err)
	}
	if n < 12 {
		t.Fatalf("only %d hits for %q; corpus too small for the experiment", n, term)
	}
	lt.ResetStats()
	for {
		st, err := sess.NextMiniatureCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Done {
			break
		}
		if st.Mini == nil || st.Mini.PopCount() == 0 {
			t.Fatal("blank miniature during browse")
		}
		steps++
	}
	sess.Close() // drain in-flight prefetches so their traffic is counted
	ls := lt.Stats()
	return steps, ls.RoundTrips, ls.LinkTime
}

func TestEPipeSequentialBrowse(t *testing.T) {
	corpus, err := demo.Build(1<<15, 24)
	if err != nil {
		t.Fatal(err)
	}
	newSession := func() (*workstation.Session, *wire.LocalTransport) {
		lt := wire.EthernetLink(&wire.Handler{Srv: corpus.Server})
		return workstation.New(wire.NewClient(lt), core.Config{
			Screen: screen.New(240, 140),
			Clock:  vclock.New(),
		}), lt
	}

	lock, lockLT := newSession()
	lockSteps, lockRTs, lockTime := epipeBrowse(t, lock, lockLT, "lung")

	pipe, pipeLT := newSession()
	pipe.EnablePrefetch(workstation.PrefetchConfig{Depth: epipeDepth, Batch: epipeBatch})
	pipeSteps, pipeRTs, pipeTime := epipeBrowse(t, pipe, pipeLT, "lung")

	if lockSteps != pipeSteps {
		t.Fatalf("browse lengths diverge: %d vs %d", lockSteps, pipeSteps)
	}
	lockPer := lockTime / time.Duration(lockSteps)
	pipePer := pipeTime / time.Duration(pipeSteps)
	t.Logf("E-PIPE: %d miniatures; lock-step %v/mini %d RTs; pipelined %v/mini %d RTs (N=%d K=%d)",
		lockSteps, lockPer, lockRTs, pipePer, pipeRTs, epipeDepth, epipeBatch)

	// Acceptance: >=3x lower per-miniature link latency.
	if pipePer*3 > lockPer {
		t.Fatalf("per-miniature link time %v not 3x below lock-step %v", pipePer, lockPer)
	}
	// Acceptance: the pipeline browses at the batching floor — one round
	// trip per K miniatures. (The lock-step loop pays one round trip per
	// miniature now that a cursor step is a batch of one carrying the mode
	// inline, so a fixed K-fold-below-lock-step ratio is the wrong bar.)
	floor := int64((lockSteps + epipeBatch - 1) / epipeBatch)
	if pipeRTs > floor {
		t.Fatalf("round trips %d above the one-per-%d floor %d (lock-step %d)", pipeRTs, epipeBatch, floor, lockRTs)
	}
	// The warm pipeline misses only on the cold start.
	ps := pipe.PrefetchStats()
	if ps.Misses != 1 {
		t.Fatalf("prefetch misses = %d, want 1 (cold start only)", ps.Misses)
	}
	if ps.Hits != int64(pipeSteps-1) {
		t.Fatalf("prefetch hits = %d, want %d", ps.Hits, pipeSteps-1)
	}
}

// TestEPipeOverTCP runs the same browse end-to-end over a real TCP
// connection with the multiplexed framing and server-side read-ahead: the
// whole pipeline, no simulation.
func TestEPipeOverTCP(t *testing.T) {
	corpus, err := demo.Build(1<<15, 16)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Server.SetReadAhead(8)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go wire.ServeWith(l, &wire.Handler{Srv: corpus.Server}, wire.ServeOpts{})

	tp, err := wire.DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tp.SetCallTimeout(10 * time.Second)
	sess := workstation.New(wire.NewClient(tp), core.Config{
		Screen: screen.New(240, 140),
		Clock:  vclock.New(),
	})
	sess.EnablePrefetch(workstation.PrefetchConfig{Depth: epipeDepth, Batch: epipeBatch})
	defer sess.Close()

	n, err := sess.QueryCtx(context.Background(), "heart")
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("hits = %d", n)
	}
	steps := 0
	for {
		st, err := sess.NextMiniatureCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Done {
			break
		}
		if st.Mini == nil || st.Mini.PopCount() == 0 {
			t.Fatal("blank miniature over TCP")
		}
		steps++
	}
	if steps != n {
		t.Fatalf("browsed %d of %d results", steps, n)
	}
	// The device served read-ahead blocks behind the sweep.
	if st := corpus.Server.Stats(); st.ReadAheadBlocks == 0 {
		t.Log("note: no read-ahead blocks landed (cache already warm)")
	}
}

// BenchmarkEPipeBrowse reports the per-object link cost of a full
// sequential browse, lock-step vs pipelined, for EXPERIMENTS.md.
func BenchmarkEPipeBrowse(b *testing.B) {
	corpus, err := demo.Build(1<<15, 24)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, prefetch bool) {
		var rts, steps int64
		var linkTime time.Duration
		for i := 0; i < b.N; i++ {
			lt := wire.EthernetLink(&wire.Handler{Srv: corpus.Server})
			sess := workstation.New(wire.NewClient(lt), core.Config{
				Screen: screen.New(240, 140),
				Clock:  vclock.New(),
			})
			if prefetch {
				sess.EnablePrefetch(workstation.PrefetchConfig{Depth: epipeDepth, Batch: epipeBatch})
			}
			if _, err := sess.QueryCtx(context.Background(), "lung"); err != nil {
				b.Fatal(err)
			}
			lt.ResetStats()
			for {
				st, err := sess.NextMiniatureCtx(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if st.Done {
					break
				}
				steps++
			}
			sess.Close()
			ls := lt.Stats()
			rts += ls.RoundTrips
			linkTime += ls.LinkTime
		}
		b.ReportMetric(float64(rts)/float64(steps), "RTs/object")
		b.ReportMetric(float64(linkTime.Microseconds())/float64(steps)/1000, "link-ms/object")
	}
	b.Run("lockstep", func(b *testing.B) { run(b, false) })
	b.Run("pipelined", func(b *testing.B) { run(b, true) })
}
