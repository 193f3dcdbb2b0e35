package workstation

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"minos/internal/archiver"
	"minos/internal/core"
	"minos/internal/disk"
	"minos/internal/formatter"
	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/server"
	"minos/internal/text"
	"minos/internal/vclock"
	"minos/internal/voice"
	"minos/internal/wire"
)

func fixture(t testing.TB) (*Session, *server.Server) {
	t.Helper()
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(8192))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(archiver.New(dev))

	lungs, err := object.NewBuilder(1, "lungs", object.Visual).
		Text(".title Lungs\n.chapter Findings\nThe lung shadow is visible in the upper lobe region today.\n").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	heart, err := object.NewBuilder(2, "heart", object.Visual).
		Text(".title Heart\n.chapter Findings\nThe heart rhythm is regular with no murmur at all.\n").
		Relevant(1, object.Anchor{Media: object.MediaText, From: 0, To: 5}, img.Point{X: 3, Y: 30}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*object.Object{lungs, heart} {
		if _, err := srv.Publish(o); err != nil {
			t.Fatal(err)
		}
	}
	lt := wire.EthernetLink(&wire.Handler{Srv: srv})
	sess := New(wire.NewClient(lt), core.Config{Screen: screen.New(240, 140), Clock: vclock.New()})
	return sess, srv
}

func TestQueryAndSequentialBrowsing(t *testing.T) {
	s, _ := fixture(t)
	n, err := s.QueryCtx(context.Background(), "the")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("hits = %d", n)
	}
	ctx := context.Background()
	st, err := s.NextMiniatureCtx(ctx)
	if err != nil || st.Done {
		t.Fatalf("first miniature: %v %v", st.Done, err)
	}
	if st.ID != 1 || st.Mini == nil || st.Mini.PopCount() == 0 {
		t.Fatalf("miniature 1 = %d %v", st.ID, st.Mini)
	}
	st, err = s.NextMiniatureCtx(ctx)
	if err != nil || st.Done || st.ID != 2 {
		t.Fatalf("miniature 2 = %d done=%v err=%v", st.ID, st.Done, err)
	}
	if st, _ = s.NextMiniatureCtx(ctx); !st.Done {
		t.Fatal("browsing past the end not done")
	}
	// Step back.
	st, err = s.PrevMiniatureCtx(ctx)
	if err != nil || st.Done || st.ID != 1 {
		t.Fatalf("prev = %d done=%v err=%v", st.ID, st.Done, err)
	}
	if st, _ = s.PrevMiniatureCtx(ctx); !st.Done {
		t.Fatal("prev past the start not done")
	}
}

func TestOpenSelectedPresents(t *testing.T) {
	s, _ := fixture(t)
	s.QueryCtx(context.Background(), "lung")
	if err := s.OpenSelected(); err == nil {
		t.Fatal("open without selection accepted")
	}
	s.NextMiniatureCtx(context.Background())
	if err := s.OpenSelected(); err != nil {
		t.Fatal(err)
	}
	if s.Manager().Object() == nil || s.Manager().Object().ID != 1 {
		t.Fatal("wrong object presented")
	}
	if s.Manager().Screen().Content().PopCount() == 0 {
		t.Fatal("screen blank")
	}
	if s.FetchTime == 0 {
		t.Fatal("no fetch time accounted")
	}
}

func TestRelevantObjectsResolveThroughServer(t *testing.T) {
	s, _ := fixture(t)
	if err := s.OpenObject(2); err != nil {
		t.Fatal(err)
	}
	// Object 2 links object 1 as relevant; entering resolves over the
	// wire.
	if err := s.Manager().EnterRelevant(0); err != nil {
		t.Fatal(err)
	}
	if s.Manager().Object().ID != 1 {
		t.Fatalf("relevant object = %d", s.Manager().Object().ID)
	}
	if err := s.Manager().ReturnFromRelevant(); err != nil {
		t.Fatal(err)
	}
	if s.Manager().Object().ID != 2 {
		t.Fatal("return did not restore parent")
	}
}

func TestOpenMissingObject(t *testing.T) {
	s, _ := fixture(t)
	if err := s.OpenObject(99); err == nil {
		t.Fatal("missing object opened")
	}
}

func TestBrowseEditingState(t *testing.T) {
	s, _ := fixture(t)
	dir := formatter.NewDataDir()
	f := formatter.New(dir)
	if err := s.BrowseEditing(f); err == nil {
		t.Fatal("empty formatter browsed")
	}
	err := f.SetSynthesis("object 7 visual Draft Report\ntext\n.title Draft\nWork in progress text goes here.\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BrowseEditing(f); err != nil {
		t.Fatal(err)
	}
	o := s.Manager().Object()
	if o.ID != 7 || o.State != object.Editing {
		t.Fatalf("editing object = %+v", o)
	}
	// The same browsing commands work.
	if err := s.Manager().NextPage(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryMiss(t *testing.T) {
	s, _ := fixture(t)
	n, err := s.QueryCtx(context.Background(), "unicorn")
	if err != nil || n != 0 {
		t.Fatalf("miss query = %d, %v", n, err)
	}
	if st, _ := s.NextMiniatureCtx(context.Background()); !st.Done {
		t.Fatal("empty result set browsed")
	}
}

func TestAudioMiniaturePlaysPreview(t *testing.T) {
	s, srv := fixture(t)
	// Publish an audio object.
	seg, _ := text.Parse("Spoken preview content for the miniature browser.\n")
	syn := voice.Synthesize(text.Flatten(seg), voice.DefaultSpeaker(), 2000)
	// Insertion-time recognition makes the spoken object content-queryable
	// (the index uses "the same access methods as in text", §2).
	rec := voice.NewRecognizer([]string{"preview"})
	rec.HitRate = 1.0
	syn.Part.Utterances = rec.Recognize(syn.Marks)
	o, err := object.NewBuilder(9, "spoken", object.Audio).VoicePart(syn.Part).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish(o); err != nil {
		t.Fatal(err)
	}
	// Query matches only the audio object (token "preview").
	n, err := s.QueryCtx(context.Background(), "preview")
	if err != nil || n != 1 {
		t.Fatalf("query = %d, %v", n, err)
	}
	if _, err := s.NextMiniatureCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The voice preview is playing on the session's message player.
	if !s.Manager().MsgPlayer().Playing() {
		t.Fatal("audio miniature did not start its voice preview")
	}
	log := s.Manager().MsgPlayer().PlayLog
	if len(log) != 1 || log[0].From != 0 {
		t.Fatalf("preview play log = %+v", log)
	}
}

func TestRefineNarrowsResults(t *testing.T) {
	s, _ := fixture(t)
	n, err := s.QueryCtx(context.Background(), "the")
	if err != nil || n != 2 {
		t.Fatalf("query = %d, %v", n, err)
	}
	n, err = s.RefineCtx(context.Background(), "lung")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || s.Results()[0] != 1 {
		t.Fatalf("refined = %d %v", n, s.Results())
	}
	// The browsing cursor resets.
	st, err := s.NextMiniatureCtx(context.Background())
	if err != nil || st.Done || st.ID != 1 {
		t.Fatalf("after refine: %d %v %v", st.ID, st.Done, err)
	}
	// Refining to nothing empties the set.
	if n, _ := s.RefineCtx(context.Background(), "rhythm"); n != 0 {
		t.Fatalf("disjoint refine = %d", n)
	}
}

func TestShowBrowserRendersMiniatures(t *testing.T) {
	s, _ := fixture(t)
	s.QueryCtx(context.Background(), "the")
	if err := s.ShowBrowserCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	scr := s.Manager().Screen()
	if scr.Content().PopCount() == 0 {
		t.Fatal("browser screen blank")
	}
	if !containsStr(scr.Menu(), "NEXT MINIATURE") {
		t.Fatalf("browser menu = %v", scr.Menu())
	}
	// Advancing the cursor changes the highlight.
	snap0 := scr.Snapshot()
	s.NextMiniatureCtx(context.Background())
	if err := s.ShowBrowserCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if scr.Snapshot() == snap0 {
		t.Fatal("cursor highlight did not change the screen")
	}
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// intersectRef is the map-based intersection the two-pointer pass replaced.
func intersectRef(base, hits []object.ID) []object.ID {
	match := map[object.ID]bool{}
	for _, id := range hits {
		match[id] = true
	}
	var kept []object.ID
	for _, id := range base {
		if match[id] {
			kept = append(kept, id)
		}
	}
	return kept
}

// TestIntersectMatchesMapReference: on ascending, duplicate-free lists —
// what every Backend query returns — the two-pointer intersection keeps
// exactly what the map-based one did, in the same (ascending) order.
func TestIntersectMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ascending := func(n, span int) []object.ID {
		var ids []object.ID
		for id := 0; id < span && len(ids) < n; id++ {
			if rng.Intn(span) < 2*n {
				ids = append(ids, object.ID(id))
			}
		}
		return ids
	}
	odds := []object.ID{1, 3, 5, 7}
	cases := [][2][]object.ID{
		{nil, nil},
		{nil, odds},
		{odds, nil},
		{odds, {0, 2, 4, 6, 8}}, // disjoint, interleaved
		{odds, {100, 200}},      // disjoint, one past the other
		{odds, odds},            // identical
		{odds, {7}},
		{{0, 1 << 62}, {1 << 62}},
	}
	for i := 0; i < 500; i++ {
		span := 1 + rng.Intn(400)
		cases = append(cases, [2][]object.ID{ascending(rng.Intn(span), span), ascending(rng.Intn(span), span)})
	}
	for _, c := range cases {
		got, want := intersect(c[0], c[1]), intersectRef(c[0], c[1])
		if !slices.Equal(got, want) {
			t.Fatalf("intersect(%v, %v) = %v, want %v", c[0], c[1], got, want)
		}
	}
}
