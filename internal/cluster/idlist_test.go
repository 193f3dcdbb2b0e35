package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"

	"minos/internal/cluster"
	"minos/internal/demo"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/pool"
	"minos/internal/server"
	"minos/internal/wire"
)

// synthSeed seeds shard s's synthetic index documents.
func synthSeed(s int) uint64 { return 0x5EED + uint64(s) }

// addSynthDocs tops every server's index up with docs synthetic documents
// (demo.SynthDoc), on id ranges disjoint from each other and from the demo
// corpus, and waits out the merges so the segment layout is fixed.
func addSynthDocs(servers []*server.Server, docs int) {
	for s, srv := range servers {
		var d index.Doc
		for i := 0; i < docs; i++ {
			demo.SynthDoc(synthSeed(s), i, &d)
			d.ID = object.ID(10_000_000*(s+1) + i)
			srv.ContentIndex().Add(&d)
		}
		srv.ContentIndex().WaitMerges()
	}
}

// localFleet serves servers in process, one LocalTransport per dial, with
// the cluster map installed on every server.
func localFleet(t testing.TB, servers []*server.Server) *cluster.Client {
	t.Helper()
	f := &testFleet{}
	m := &cluster.Map{Epoch: 1, Vnodes: cluster.DefaultVnodes}
	for i, srv := range servers {
		name := fmt.Sprintf("shard%d", i)
		f.add(name, srv)
		m.Shards = append(m.Shards, cluster.Shard{ID: i, Primary: name})
	}
	for _, srv := range servers {
		srv.SetClusterMap(m.Epoch, m.Encode())
	}
	c, err := cluster.Dial("shard0", f.dialer())
	if err != nil {
		t.Fatalf("cluster.Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// queryBattery is the query-planned mix of the end-to-end benchmark: half
// selective 3-term conjunctions drawn from real documents, a quarter single
// common terms (long id lists), a quarter common term + kind:audio + a
// 4-year date range.
func queryBattery(t testing.TB, shards, docs int) []index.Query {
	r := rand.New(rand.NewSource(27))
	qs := make([]index.Query, 0, 256)
	for k := 0; k < 256; k++ {
		var q string
		switch common := (k / 4) % demo.SynthCommonVocab; k % 4 {
		case 0, 1:
			q = strings.Join(demo.SynthQuery(synthSeed(k%shards), r.Intn(1<<20), docs).Terms, " ")
		case 2:
			q = fmt.Sprintf("common%02d", common)
		default:
			from := 1980 + (k/4)%6
			q = fmt.Sprintf("common%02d kind:audio after:%04d-01-01 before:%04d-12-28", common, from, from+3)
		}
		iq, err := index.ParseQuery(q)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", q, err)
		}
		qs = append(qs, iq)
	}
	return qs
}

// union is the ascending, duplicate-free union of id lists.
func union(lists ...[]object.ID) []object.ID {
	var all []object.ID
	for _, l := range lists {
		all = append(all, l...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// TestQueryBatteryEveryTransport: the 256-query battery over 3 shards
// answers exactly the brute-force SearchNaive — per shard through a wire
// client over LocalTransport and over TCP, and for the whole fleet through
// a cluster.Client over each — and ListCtx answers Server.IDs. The packed
// id lists and their merge must not change a single answer.
func TestQueryBatteryEveryTransport(t *testing.T) {
	const shards, docs = 3, 20_000
	ctx := context.Background()
	sh, err := demo.BuildSharded(1<<15, 40, shards, cluster.DefaultVnodes)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	addSynthDocs(sh.Servers, docs)

	m := &cluster.Map{Epoch: 1, Vnodes: cluster.DefaultVnodes}
	locals := make([]*wire.Client, shards)
	tcps := make([]*wire.Client, shards)
	for i, srv := range sh.Servers {
		h := &wire.Handler{Srv: srv}
		locals[i] = wire.NewClient(&wire.LocalTransport{H: h})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go wire.ServeWith(l, h, wire.ServeOpts{})
		tp, err := wire.DialMux(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		tcps[i] = wire.NewClient(tp)
		t.Cleanup(func() { tcps[i].Close() })
		m.Shards = append(m.Shards, cluster.Shard{ID: i, Primary: l.Addr().String()})
	}
	for _, srv := range sh.Servers {
		srv.SetClusterMap(m.Epoch, m.Encode())
	}
	tcpFleet, err := cluster.Dial(m.Shards[0].Primary, func(ep string) (wire.Transport, error) { return wire.DialMux(ep) })
	if err != nil {
		t.Fatalf("cluster.Dial over TCP: %v", err)
	}
	t.Cleanup(func() { tcpFleet.Close() })
	fleets := map[string]*cluster.Client{"local": localFleet(t, sh.Servers), "tcp": tcpFleet}

	hits := 0
	for _, q := range queryBattery(t, shards, docs) {
		per := make([][]object.ID, shards)
		for i, srv := range sh.Servers {
			per[i] = srv.ContentIndex().SearchNaive(q)
			for name, c := range map[string]*wire.Client{"local": locals[i], "tcp": tcps[i]} {
				got, _, err := c.QueryPlannedCtx(ctx, q)
				if err != nil {
					t.Fatalf("%s shard %d %+v: %v", name, i, q, err)
				}
				if !slices.Equal(got, per[i]) {
					t.Fatalf("%s shard %d %+v: %d ids, want %d", name, i, q, len(got), len(per[i]))
				}
			}
		}
		want := union(per...)
		hits += len(want)
		for name, c := range fleets {
			got, _, err := c.QueryPlannedCtx(ctx, q)
			if err != nil {
				t.Fatalf("%s fleet %+v: %v", name, q, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s fleet %+v: %d ids, want %d", name, q, len(got), len(want))
			}
		}
	}
	if hits < 256*100 {
		t.Fatalf("battery found %d hits in all; the corpus drifted", hits)
	}

	all := make([][]object.ID, shards)
	for i, srv := range sh.Servers {
		all[i] = srv.IDs()
		for name, c := range map[string]*wire.Client{"local": locals[i], "tcp": tcps[i]} {
			if got, _, err := c.ListCtx(ctx); err != nil || !slices.Equal(got, all[i]) {
				t.Fatalf("%s shard %d ListCtx = %d ids, %v; want %d", name, i, len(got), err, len(all[i]))
			}
		}
	}
	for name, c := range fleets {
		if got, _, err := c.ListCtx(ctx); err != nil || !slices.Equal(got, union(all...)) {
			t.Fatalf("%s fleet ListCtx = %d ids, %v", name, len(got), err)
		}
	}
}

// TestQueryPlannedConcurrentGathers: gathers in flight together, over TCP
// and in process, share the servers' pooled query scratch, the request
// frames the terms are read from and the pooled response frames the merge
// recycles — and every one of them still answers exactly.
func TestQueryPlannedConcurrentGathers(t *testing.T) {
	const shards, docs, workers = 2, 5_000, 8
	ctx := context.Background()
	servers := make([]*server.Server, shards)
	m := &cluster.Map{Epoch: 1, Vnodes: cluster.DefaultVnodes}
	for i := range servers {
		srv, err := demo.NewServer(fmt.Sprintf("archive%d", i), 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go wire.ServeWith(l, &wire.Handler{Srv: srv}, wire.ServeOpts{})
		m.Shards = append(m.Shards, cluster.Shard{ID: i, Primary: l.Addr().String()})
	}
	addSynthDocs(servers, docs)
	for _, srv := range servers {
		srv.SetClusterMap(m.Epoch, m.Encode())
	}
	tcpFleet, err := cluster.Dial(m.Shards[0].Primary, func(ep string) (wire.Transport, error) { return wire.DialMux(ep) })
	if err != nil {
		t.Fatalf("cluster.Dial over TCP: %v", err)
	}
	t.Cleanup(func() { tcpFleet.Close() })
	fleets := []*cluster.Client{tcpFleet, localFleet(t, servers)}

	qs := queryBattery(t, shards, docs)[:64]
	want := make([][]object.ID, len(qs))
	for i, q := range qs {
		for _, srv := range servers {
			want[i] = union(want[i], srv.ContentIndex().SearchNaive(q))
		}
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			c := fleets[w%len(fleets)]
			for k := range qs {
				i := (k + w*7) % len(qs)
				got, _, err := c.QueryPlannedCtx(ctx, qs[i])
				if err == nil && !slices.Equal(got, want[i]) {
					err = fmt.Errorf("worker %d %+v: %d ids, want %d", w, qs[i], len(got), len(want[i]))
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// gatherFleet is two shards of docs synthetic documents each behind an
// in-process routed client, and a common-term query over them.
func gatherFleet(tb testing.TB, docs int) (*cluster.Client, index.Query) {
	servers := make([]*server.Server, 2)
	for i := range servers {
		srv, err := demo.NewServer(fmt.Sprintf("archive%d", i), 1<<10)
		if err != nil {
			tb.Fatal(err)
		}
		servers[i] = srv
	}
	addSynthDocs(servers, docs)
	return localFleet(tb, servers), index.Query{Terms: []string{"common07"}}
}

// TestAllocQueryPlannedGather: a warm 2-shard gather allocates the merged
// result and a small constant besides — the shard frames come from and go
// back to the buffer pool, and nothing else is id-sized.
func TestAllocQueryPlannedGather(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	ctx := context.Background()
	c, q := gatherFleet(t, 20_000)
	var hits int
	for i := 0; i < 4; i++ { // warm pools and caches
		ids, _, err := c.QueryPlannedCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		hits = len(ids)
	}
	if hits < 500 {
		t.Fatalf("common-term query matched %d ids; the corpus drifted", hits)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := c.QueryPlannedCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("gather of %d hits: %d bytes/op", hits, perOp)
	if budget := uint64(8*hits + 4096); perOp > budget {
		t.Fatalf("gather of %d hits allocates %d bytes/op, budget %d (8 per hit + 4 KiB)", hits, perOp, budget)
	}
}

// BenchmarkQueryPlannedGather: one common-term query gathered from two
// shards of 100k synthetic documents (about 9.5k hits) over in-process
// transports — the scatter, both shard searches, the packed frames and the
// merge, without a socket.
func BenchmarkQueryPlannedGather(b *testing.B) {
	ctx := context.Background()
	c, q := gatherFleet(b, 100_000)
	ids, _, err := c.QueryPlannedCtx(ctx, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.QueryPlannedCtx(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ids)), "hits/op")
}
