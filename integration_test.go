package minos

import (
	"context"
	"net"
	"testing"
	"time"

	"minos/internal/core"
	"minos/internal/demo"
	img "minos/internal/image"
	"minos/internal/screen"
	"minos/internal/vclock"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// TestEndToEndOverTCP exercises the full §5 architecture over a real TCP
// connection: corpus on the server, query → miniatures → presentation on
// the workstation, relevant-object navigation resolving over the wire, and
// view requests shipping only the view's data.
func TestEndToEndOverTCP(t *testing.T) {
	corpus, err := demo.Build(1<<16, 6)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go wire.ServeWith(l, &wire.Handler{Srv: corpus.Server}, wire.ServeOpts{})

	dial := func() *wire.Client {
		tp, err := wire.DialMux(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return wire.NewClient(tp)
	}
	sess := workstation.New(dial(), core.Config{
		Screen: screen.New(512, 342),
		Clock:  vclock.New(),
	})
	defer sess.Close()

	// Query → sequential miniature browsing.
	n, err := sess.QueryCtx(context.Background(), "subway")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no subway hits")
	}
	st, err := sess.NextMiniatureCtx(context.Background())
	if err != nil || st.Done {
		t.Fatalf("miniature: %v %v", st.Done, err)
	}
	if st.Mini.PopCount() == 0 {
		t.Fatal("blank miniature")
	}
	if st.ID != corpus.FigureIDs["fig78"] {
		t.Fatalf("first hit = %d, want the subway map", st.ID)
	}

	// Present it and navigate into a relevant object over the wire.
	if err := sess.OpenSelected(); err != nil {
		t.Fatal(err)
	}
	m := sess.Manager()
	if err := m.EnterRelevant(1); err != nil {
		t.Fatal(err)
	}
	if m.Object().Title != "City Hospitals" {
		t.Fatalf("relevant object = %q", m.Object().Title)
	}
	if err := m.ReturnFromRelevant(); err != nil {
		t.Fatal(err)
	}

	// Audio object: open the city walk owner and run its process sim.
	if err := sess.OpenObject(corpus.FigureIDs["fig910"]); err != nil {
		t.Fatal(err)
	}
	if err := m.StartProcess("walk"); err != nil {
		t.Fatal(err)
	}
	m.Clock().Run(10 * time.Minute)
	if m.ProcessRunning() {
		t.Fatal("walk did not finish")
	}

	// Views over the wire ship only the rectangle.
	c := dial()
	defer c.Close()
	view, _, err := c.ImageViewCtx(context.Background(), corpus.FigureIDs["bigmap"], "roadmap", img.Rect{X: 50, Y: 50, W: 64, H: 48})
	if err != nil {
		t.Fatal(err)
	}
	if view.W != 64 || view.H != 48 {
		t.Fatalf("view = %dx%d", view.W, view.H)
	}
}

// TestFullPipelineFigureObjects archives every figure object through the
// server, loads it back over a simulated link, and re-runs a browse on the
// materialized copy — the "create, live and die within the computer
// system" loop.
func TestFullPipelineFigureObjects(t *testing.T) {
	corpus, err := demo.Build(1<<16, 0)
	if err != nil {
		t.Fatal(err)
	}
	lt := wire.EthernetLink(&wire.Handler{Srv: corpus.Server})
	sess := workstation.New(wire.NewClient(lt), core.Config{
		Screen: screen.New(512, 342),
		Clock:  vclock.New(),
	})
	defer sess.Close()

	for label, id := range corpus.FigureIDs {
		if err := sess.OpenObject(id); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		m := sess.Manager()
		if m.PageCount() == 0 {
			t.Fatalf("%s: zero pages", label)
		}
		if err := m.NextPage(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}
