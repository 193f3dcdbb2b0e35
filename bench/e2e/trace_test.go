package main

import (
	"context"
	"math"
	"testing"

	"minos/internal/wire"
)

// Tracing must never change the path being measured: behind the
// decorators the wire client has to find the same pipelining and stream
// interfaces the bare transport offers, and a traced voice op has to be a
// real credit stream, not the batch fallback.
func TestTracedStackTakesTheSamePath(t *testing.T) {
	c, err := generate(5, corpusShape{Objects: 4, SpokenEvery: 1, SpokenWords: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	st, err := buildStack(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cc, err := st.dialCluster()
	if err != nil {
		t.Fatal(err)
	}
	be := st.backend(cc)
	if _, ok := be.(*tracedBackend); !ok {
		t.Fatalf("traced stack handed out a %T", be)
	}
	ws := newSession(be)
	tr.on.Store(true)
	id := c.Spoken[0]
	pb, err := ws.PlayVoiceStreamCtx(context.Background(), id, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.on.Store(false)
	if err := (&verifier{pcm: c.PCM}).playback(id, pb); err != nil {
		t.Error(err)
	}
	var open, voice bool
	for _, sp := range tr.drain() {
		open = open || (sp.Layer == layerTransport && sp.Name == "OpenStream")
		voice = voice || (sp.Layer == layerBackend && sp.Name == "VoiceStream")
	}
	if !open || !voice {
		t.Errorf("spans: transport OpenStream %v, backend VoiceStream %v; want both", open, voice)
	}

	// The transport the cluster client was given must still pipeline and
	// carry the cluster map.
	mt, err := wire.DialMux(st.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	var tp wire.Transport = &tracedTransport{MuxTransport: mt, tr: tr}
	if _, ok := tp.(wire.ContextPipeliner); !ok {
		t.Error("traced transport is not a wire.ContextPipeliner")
	}
	if _, ok := tp.(wire.StreamOpener); !ok {
		t.Error("traced transport is not a wire.StreamOpener")
	}
	if he, ok := tp.(interface{ HelloExtra() []byte }); !ok || he.HelloExtra() == nil {
		t.Error("traced transport lost the HELLO cluster map")
	}
}

// A hand-built trace: one op, two gateway requests, a waited-for backend
// call under the first (parent by context) fanning out to two overlapping
// transports, a backend call with no context parent (by containment), and
// a prefetch batch (background).
func TestSummarizeSelfTimesAndParentage(t *testing.T) {
	us := func(v int64) int64 { return v * 1000 }
	spans := []span{
		{ID: 1, Layer: layerClient, Start: us(0), End: us(100), Op: 9},
		{ID: 2, Layer: layerGateway, Start: us(10), End: us(50)},
		{ID: 3, Layer: layerGateway, Start: us(60), End: us(90)},
		{ID: 4, Layer: layerBackend, Parent: 2, Start: us(15), End: us(45)},
		{ID: 5, Layer: layerTransport, Parent: 4, Start: us(20), End: us(35)},
		{ID: 6, Layer: layerTransport, Parent: 4, Start: us(25), End: us(40)},
		{ID: 7, Layer: layerBackend, Start: us(65), End: us(85)}, // no ctx parent: inside gateway span 3
		{ID: 8, Layer: layerBackend, Async: true, Parent: background, Start: us(30), End: us(130)},
		{ID: 9, Layer: layerTransport, Parent: 8, Start: us(31), End: us(120)},
	}
	sum := summarize(spans)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if sum.Ops != 1 {
		t.Fatalf("ops = %d, want 1", sum.Ops)
	}
	near("http self", sum.HTTPSelfUS, 100-40-30)
	near("gateway self", sum.GatewaySelfUS, (40-30)+(30-20))
	// Backend selfs: #4 = 30 - union(20..40) = 10; #7 = 20; #8 = 100 - 89 = 11.
	near("cluster self (median)", sum.ClusterSelfUS, 11)
	near("fanout", sum.Fanout, 1)
	near("backend calls per op", sum.BackendPerOp, 3)
	if sum.InflightMax != 3 {
		t.Errorf("inflight max = %d, want 3", sum.InflightMax)
	}
	if sum.BackgroundSpans != 2 {
		t.Errorf("background spans = %d, want 2", sum.BackgroundSpans)
	}
	// Blocking tree: 30 + 20 + 10 + 20 + (15 + 15 transports) = 110 over a
	// 100 us op: the two transports overlap for 10 us.
	near("coverage", sum.Coverage, 1.10)
	if spans[6].Parent != 3 {
		t.Errorf("containment gave span 7 parent %d, want 3", spans[6].Parent)
	}
}
