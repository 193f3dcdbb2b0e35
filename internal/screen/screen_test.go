package screen

import (
	"bytes"
	"math/rand"
	"testing"

	img "minos/internal/image"
)

func TestNewDefaults(t *testing.T) {
	s := New(0, 0)
	if s.W != DefaultW || s.H != DefaultH {
		t.Fatalf("dims %dx%d", s.W, s.H)
	}
	if s.ContentWidth() != DefaultW-MenuWidth {
		t.Fatalf("ContentWidth = %d", s.ContentWidth())
	}
	if s.ContentHeight() != DefaultH {
		t.Fatalf("ContentHeight = %d", s.ContentHeight())
	}
}

func TestShowPageReplacesContent(t *testing.T) {
	s := New(100, 80)
	p1 := img.NewBitmap(s.ContentWidth(), 80)
	p1.Set(1, 1, true)
	s.ShowPage(p1)
	if !s.Content().Get(1, 1) {
		t.Fatal("page pixel missing")
	}
	p2 := img.NewBitmap(s.ContentWidth(), 80)
	p2.Set(2, 2, true)
	s.ShowPage(p2)
	c := s.Content()
	if c.Get(1, 1) {
		t.Fatal("old page pixel survived ShowPage")
	}
	if !c.Get(2, 2) {
		t.Fatal("new page pixel missing")
	}
	s.ShowPage(nil)
	if s.Content().PopCount() != 0 {
		t.Fatal("nil page should clear")
	}
}

func TestSuperimposeKeepsPrevious(t *testing.T) {
	s := New(100, 80)
	p := img.NewBitmap(s.ContentWidth(), 80)
	p.Set(1, 1, true)
	s.ShowPage(p)
	tr := img.NewBitmap(s.ContentWidth(), 80)
	tr.Set(5, 5, true)
	s.Superimpose(tr)
	c := s.Content()
	if !c.Get(1, 1) || !c.Get(5, 5) {
		t.Fatal("superimpose lost pixels")
	}
}

func TestOverwriteReplacesOnlyMasked(t *testing.T) {
	s := New(100, 80)
	p := img.NewBitmap(s.ContentWidth(), 80)
	p.Fill(img.Rect{X: 0, Y: 0, W: 20, H: 20}, true)
	s.ShowPage(p)
	src := img.NewBitmap(s.ContentWidth(), 80)
	mask := img.NewBitmap(s.ContentWidth(), 80)
	// The overwrite owns a 5x5 area at (2,2) and draws nothing there
	// (blank spots, as in Figures 9-10's route blanking).
	mask.Fill(img.Rect{X: 2, Y: 2, W: 5, H: 5}, true)
	s.Overwrite(src, mask)
	c := s.Content()
	if c.Get(3, 3) {
		t.Fatal("masked pixel not replaced")
	}
	if !c.Get(10, 10) {
		t.Fatal("unmasked pixel damaged")
	}
	// Nil args are no-ops.
	before := c.Hash()
	s.Overwrite(nil, nil)
	if s.Content().Hash() != before {
		t.Fatal("nil overwrite changed content")
	}
}

func TestPinStripReducesContentHeight(t *testing.T) {
	s := New(200, 150)
	strip := img.NewBitmap(s.ContentWidth(), 40)
	strip.Set(0, 0, true)
	s.PinStrip(strip)
	if s.ContentHeight() != 150-40-GutterCols {
		t.Fatalf("ContentHeight with strip = %d", s.ContentHeight())
	}
	// Page content lands below the strip.
	p := img.NewBitmap(s.ContentWidth(), s.ContentHeight())
	p.Set(0, 0, true)
	s.ShowPage(p)
	r := s.Render()
	if !r.Get(0, 0) {
		t.Fatal("strip pixel missing in render")
	}
	if !r.Get(0, 40+GutterCols) {
		t.Fatal("page pixel not offset below strip")
	}
	s.PinStrip(nil)
	if s.ContentHeight() != 150 {
		t.Fatal("unpin did not restore height")
	}
}

func TestMenuRendering(t *testing.T) {
	s := New(300, 200)
	s.SetTitle("XRAY")
	s.SetMenu([]string{"NEXT PAGE", "PREV PAGE"})
	got := s.Menu()
	if len(got) != 2 || got[0] != "NEXT PAGE" {
		t.Fatalf("Menu() = %v", got)
	}
	r := s.Render()
	// Some pixels must appear in the menu column.
	menuArea := r.Extract(img.Rect{X: s.ContentWidth() + 1, Y: 0, W: MenuWidth - 1, H: 60})
	if menuArea.PopCount() == 0 {
		t.Fatal("menu column blank")
	}
	// Separator line present.
	if !r.Get(s.ContentWidth(), 100) {
		t.Fatal("separator missing")
	}
}

func TestIndicatorsSelectable(t *testing.T) {
	s := New(200, 150)
	s.SetIndicators([]Indicator{
		{Kind: RelevantObject, Name: "obj2", At: img.Point{X: 10, Y: 10}},
		{Kind: ReturnFromRelevant, Name: "back", At: img.Point{X: 10, Y: 30}},
	})
	if got := s.SelectAt(12, 12); got != 0 {
		t.Fatalf("SelectAt = %d, want 0", got)
	}
	if got := s.SelectAt(14, 34); got != 1 {
		t.Fatalf("SelectAt = %d, want 1", got)
	}
	if got := s.SelectAt(100, 100); got != -1 {
		t.Fatalf("SelectAt miss = %d, want -1", got)
	}
	// Overlapping indicators: topmost (last) wins.
	s.SetIndicators([]Indicator{
		{Kind: RelevantObject, Name: "a", At: img.Point{X: 10, Y: 10}},
		{Kind: RelevantObject, Name: "b", At: img.Point{X: 12, Y: 12}},
	})
	if got := s.SelectAt(13, 13); got != 1 {
		t.Fatalf("topmost SelectAt = %d, want 1", got)
	}
}

func TestIndicatorRendered(t *testing.T) {
	s := New(200, 150)
	s.SetIndicators([]Indicator{{Kind: VoiceIndicator, Name: "v", At: img.Point{X: 50, Y: 50}}})
	r := s.Render()
	box := r.Extract(img.Rect{X: 50, Y: 50, W: indicatorW, H: indicatorH})
	if box.PopCount() < 10 {
		t.Fatalf("indicator barely drawn: %d pixels", box.PopCount())
	}
}

func TestSnapshotStable(t *testing.T) {
	build := func() *Screen {
		s := New(200, 150)
		s.SetTitle("T")
		s.SetMenu([]string{"A", "B"})
		p := img.NewBitmap(s.ContentWidth(), 150)
		p.Fill(img.Rect{X: 5, Y: 5, W: 20, H: 20}, true)
		s.ShowPage(p)
		return s
	}
	if build().Snapshot() != build().Snapshot() {
		t.Fatal("snapshots differ for identical screens")
	}
	s2 := build()
	s2.SetMenu([]string{"A", "C"})
	if s2.Snapshot() == build().Snapshot() {
		t.Fatal("different menus, same snapshot")
	}
}

func TestComposeTransparenciesStacked(t *testing.T) {
	base := img.NewBitmap(20, 20)
	base.Set(0, 0, true)
	t1 := img.NewBitmap(20, 20)
	t1.Set(1, 1, true)
	t2 := img.NewBitmap(20, 20)
	t2.Set(2, 2, true)
	set := []*img.Bitmap{t1, t2}

	got := ComposeTransparencies(base, set, Stacked, 1, nil)
	if !got.Get(0, 0) || !got.Get(1, 1) || !got.Get(2, 2) {
		t.Fatal("stacked method must show base + all transparencies up to i")
	}
	got = ComposeTransparencies(base, set, Stacked, 0, nil)
	if got.Get(2, 2) {
		t.Fatal("stacked at i=0 must not show transparency 1")
	}
}

func TestComposeTransparenciesSeparate(t *testing.T) {
	base := img.NewBitmap(20, 20)
	base.Set(0, 0, true)
	t1 := img.NewBitmap(20, 20)
	t1.Set(1, 1, true)
	t2 := img.NewBitmap(20, 20)
	t2.Set(2, 2, true)
	set := []*img.Bitmap{t1, t2}

	got := ComposeTransparencies(base, set, Separate, 1, nil)
	if !got.Get(0, 0) || !got.Get(2, 2) {
		t.Fatal("separate method must show base + transparency i")
	}
	if got.Get(1, 1) {
		t.Fatal("separate method must not show earlier transparencies")
	}
}

func TestComposeTransparenciesUserSelection(t *testing.T) {
	base := img.NewBitmap(20, 20)
	t1 := img.NewBitmap(20, 20)
	t1.Set(1, 1, true)
	t2 := img.NewBitmap(20, 20)
	t2.Set(2, 2, true)
	t3 := img.NewBitmap(20, 20)
	t3.Set(3, 3, true)
	set := []*img.Bitmap{t1, t2, t3}

	got := ComposeTransparencies(base, set, Separate, 0, []int{0, 2})
	if !got.Get(1, 1) || !got.Get(3, 3) {
		t.Fatal("selected transparencies missing")
	}
	if got.Get(2, 2) {
		t.Fatal("unselected transparency shown")
	}
	// Out-of-range selections are ignored.
	got = ComposeTransparencies(base, set, Separate, 0, []int{-1, 99})
	if got.PopCount() != 0 {
		t.Fatal("bogus selection drew pixels")
	}
}

func TestComposeTransparenciesOutOfRangeIndex(t *testing.T) {
	base := img.NewBitmap(10, 10)
	base.Set(0, 0, true)
	got := ComposeTransparencies(base, nil, Stacked, 5, nil)
	if got.PopCount() != 1 {
		t.Fatal("out-of-range index should return base only")
	}
}

func TestStringPreview(t *testing.T) {
	s := New(64, 48)
	out := s.String()
	if len(out) == 0 {
		t.Fatal("empty preview")
	}
}

func TestTruncateTo(t *testing.T) {
	if truncateTo("hello", 3) != "hel" {
		t.Error("truncate long")
	}
	if truncateTo("hi", 10) != "hi" {
		t.Error("truncate short")
	}
	if truncateTo("x", 0) != "" {
		t.Error("truncate zero")
	}
}

func TestGoldenTinyRender(t *testing.T) {
	// A fully deterministic miniature render: stable across runs and
	// platforms (pure integer rasterization).
	s := New(48, 24)
	p := img.NewBitmap(s.ContentWidth(), 24)
	p.Fill(img.Rect{X: 1, Y: 1, W: 6, H: 4}, true)
	s.ShowPage(p)
	got := s.Render().ASCII()
	want := "" +
		"....................................#...........\n" +
		".######.............................#...........\n" +
		".######.............................#...........\n" +
		".######.............................#...........\n" +
		".######.............................#...........\n"
	if got[:len(want)] != want {
		t.Fatalf("golden mismatch:\n%s", got[:len(want)])
	}
	// The separator column runs the full height.
	r := s.Render()
	for y := 0; y < s.H; y++ {
		if !r.Get(s.ContentWidth(), y) {
			t.Fatalf("separator missing at y=%d", y)
		}
	}
}

// refOverwrite is the per-pixel masked copy Overwrite performed before the
// byte-parallel kernel, kept as the reference.
func refOverwrite(content, src, mask *img.Bitmap, off int) {
	for y := 0; y < mask.H; y++ {
		for x := 0; x < mask.W; x++ {
			if mask.Get(x, y) {
				content.Set(x, y+off, src.Get(x, y))
			}
		}
	}
}

func TestOverwriteMatchesPerPixelReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	random := func(w, h int) *img.Bitmap {
		b := img.NewBitmap(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				b.Set(x, y, rng.Intn(2) == 1)
			}
		}
		return b
	}
	for _, w := range []int{12, 61, 100, 244} { // content widths 9, 46, 75, 183
		for _, stripH := range []int{0, 7} {
			s := New(w, 40)
			if stripH > 0 {
				s.PinStrip(random(s.ContentWidth(), stripH))
			}
			cw := s.ContentWidth()
			// Overwrites smaller than, equal to and larger than the content
			// area, with a source that does not cover the whole mask.
			for _, d := range []int{-5, 0, 9} {
				s.ShowPage(random(cw, 40))
				src, mask := random(cw+d, 30+d), random(cw+d+3, 33+d)
				want := s.Content()
				refOverwrite(want, src, mask, s.stripOffset())
				s.Overwrite(src, mask)
				if got := s.Content(); !bytes.Equal(got.Raw(), want.Raw()) {
					t.Fatalf("screen %d wide, strip %d, overwrite %+d: kernel and per-pixel reference differ\n got:\n%s want:\n%s",
						w, stripH, d, got.ASCII(), want.ASCII())
				}
			}
		}
	}
}
