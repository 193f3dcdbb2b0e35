package gateway

import (
	"bytes"
	"context"
	"errors"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"sync"
	"testing"

	img "minos/internal/image"
	"minos/internal/pool"
	"minos/internal/screen"
)

// refEncodePNG is the encode path the direct encoder replaced: expand every
// bit to a palette index byte and let image/png pack it back down. Kept as
// the reference the byte-equality test compares against.
func refEncodePNG(bm *img.Bitmap) ([]byte, error) {
	w, h := bm.W, bm.H
	pix := make([]byte, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if bm.Get(x, y) {
				pix[y*w+x] = 1
			}
		}
	}
	im := &image.Paletted{Pix: pix, Stride: w, Rect: image.Rect(0, 0, w, h),
		Palette: color.Palette{color.Gray{Y: 0xff}, color.Gray{Y: 0x00}}}
	var buf bytes.Buffer
	if err := png.Encode(&buf, im); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func randomBitmap(rng *rand.Rand, w, h int) *img.Bitmap {
	bm := img.NewBitmap(w, h)
	raw := bm.Raw()
	rng.Read(raw)
	if w%8 != 0 { // keep the pad-bits-zero invariant
		stride := (w + 7) / 8
		for y := 0; y < h; y++ {
			raw[(y+1)*stride-1] &= 0xFF >> (8 - w%8)
		}
	}
	return bm
}

// screenFrame is a rendered 240x140 gateway screen: the frame an open-view
// miss encodes.
func screenFrame() *img.Bitmap {
	s := screen.New(240, 140)
	s.SetTitle("BENCH")
	s.SetMenu([]string{"NEXT PAGE", "PREV PAGE", "FIND PATTERN"})
	page := img.NewBitmap(s.ContentWidth(), s.H)
	for i := 0; i < 8; i++ {
		img.DrawString(page, 4, 4+i*12, "THE PATIENT WAS ADMITTED ON")
	}
	page.Fill(img.Rect{X: 20, Y: 104, W: 90, H: 24}, true)
	s.ShowPage(page)
	return s.Render()
}

func countIDAT(data []byte) int { return bytes.Count(data, []byte("IDAT")) }

func TestEncodePNGMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cases := []*img.Bitmap{screenFrame(), img.NewBitmap(240, 140)}
	for _, d := range [][2]int{{1, 1}, {7, 3}, {8, 8}, {9, 5}, {61, 37}, {64, 48}, {240, 140}} {
		cases = append(cases, randomBitmap(rng, d[0], d[1]))
	}
	// Incompressible, so the deflate stream outgrows the 32 KiB chunk
	// buffer several times over.
	big := randomBitmap(rng, 2048, 2048)
	cases = append(cases, big)
	for _, bm := range cases {
		got, err := encodePNG(bm)
		if err != nil {
			t.Fatalf("%dx%d: encodePNG: %v", bm.W, bm.H, err)
		}
		want, err := refEncodePNG(bm)
		if err != nil {
			t.Fatalf("%dx%d: reference encode: %v", bm.W, bm.H, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%dx%d: direct encoder and image/png differ (%d vs %d bytes)", bm.W, bm.H, len(got), len(want))
		}
		dec, err := png.Decode(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("%dx%d: png.Decode: %v", bm.W, bm.H, err)
		}
		pal, ok := dec.(*image.Paletted)
		if !ok || dec.Bounds() != image.Rect(0, 0, bm.W, bm.H) {
			t.Fatalf("%dx%d: decoded as %T %v", bm.W, bm.H, dec, dec.Bounds())
		}
		for y := 0; y < bm.H; y++ {
			for x := 0; x < bm.W; x++ {
				if (pal.ColorIndexAt(x, y) == 1) != bm.Get(x, y) {
					t.Fatalf("%dx%d: pixel (%d,%d) did not round-trip", bm.W, bm.H, x, y)
				}
			}
		}
	}
	if data, _ := encodePNG(big); countIDAT(data) < 3 {
		t.Fatalf("2048x2048 incompressible raster produced %d IDAT chunks, want several", countIDAT(data))
	}
}

// A bitmap decoded off the wire may carry set pad bits; the PNG must not.
func TestEncodePNGIgnoresPadBits(t *testing.T) {
	bm := randomBitmap(rand.New(rand.NewSource(3)), 61, 37)
	want, err := encodePNG(bm)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < bm.H; y++ {
		bm.Raw()[(y+1)*8-1] |= 0xE0
	}
	got, err := encodePNG(bm)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("set pad bits changed the encoding (err %v)", err)
	}
}

func TestEncodePNGRejectsEmpty(t *testing.T) {
	for _, bm := range []*img.Bitmap{img.NewBitmap(0, 0), img.NewBitmap(0, 4), img.NewBitmap(4, 0)} {
		if _, err := encodePNG(bm); err == nil {
			t.Fatalf("encodePNG of a %dx%d bitmap succeeded", bm.W, bm.H)
		}
	}
}

// TestEncodePNGConcurrent encodes different bitmaps from 8 goroutines; run
// under -race it proves a pooled encoder state is never shared.
func TestEncodePNGConcurrent(t *testing.T) {
	const workers, rounds = 8, 200
	type job struct {
		bm   *img.Bitmap
		want []byte
	}
	jobs := make([]job, workers)
	for i := range jobs {
		bm := randomBitmap(rand.New(rand.NewSource(int64(i))), 40+17*i, 30+5*i)
		want, err := refEncodePNG(bm)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{bm, want}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := encodePNG(j.bm)
				if err != nil || !bytes.Equal(got, j.want) {
					t.Errorf("%dx%d round %d: wrong encoding (err %v)", j.bm.W, j.bm.H, r, err)
					return
				}
			}
		}(j)
	}
	wg.Wait()
}

// failAfter fails every write once n bytes have been accepted.
type failAfter struct{ n int }

var errInjected = errors.New("injected write failure")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n < len(p) {
		return 0, errInjected
	}
	f.n -= len(p)
	return len(p), nil
}

func TestEncodePNGWriteErrorLeavesPoolUsable(t *testing.T) {
	bm := randomBitmap(rand.New(rand.NewSource(9)), 240, 140)
	want, err := refEncodePNG(bm)
	if err != nil {
		t.Fatal(err)
	}
	// Fail in the signature, the header chunks, the IDAT body, its CRC and
	// the trailer in turn; after each, the next encode must be whole.
	for _, n := range []int{0, 8, 20, 40, 60, len(want) / 2, len(want) - 16, len(want) - 1} {
		if err := writePNG(&failAfter{n: n}, bm); !errors.Is(err, errInjected) {
			t.Fatalf("write failing after %d bytes: err = %v, want the injected failure", n, err)
		}
		got, err := encodePNG(bm)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("encode after a write failing at byte %d is damaged (err %v)", n, err)
		}
	}
}

// TestColdPNGAllocGuard bounds what a PNG-cache miss costs: a 240x140
// encode reuses the pooled deflate state, so it allocates little more than
// its result (image/png's encoder allocated ~850 KB here per call).
func TestColdPNGAllocGuard(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	frame := screenFrame()
	noisy := randomBitmap(rand.New(rand.NewSource(5)), 240, 140) // worst case: grows the result buffer
	for _, bm := range []*img.Bitmap{frame, noisy} {
		if _, err := encodePNG(bm); err != nil { // warm the pool
			t.Fatal(err)
		}
		var size int
		allocs := testing.AllocsPerRun(50, func() {
			data, _ := encodePNG(bm)
			size = cap(data)
		})
		if allocs > 12 {
			t.Errorf("miss encode of a 240x140 frame allocates %.0f objects, want <= 12", allocs)
		}
		if bm == frame && size > 8<<10 {
			t.Errorf("miss encode of a 240x140 screen holds %d bytes, want <= 8 KiB", size)
		}
	}
}

// TestViewPNGEncodedOncePerScreen covers the per-session view reuse: the
// opened event and the view.png fetch that follows share one encode and one
// byte slice, a changed screen re-encodes, and sessions never share a view.
func TestViewPNGEncodedOncePerScreen(t *testing.T) {
	hub := newTestHub(t, demoBackends(t, 1))
	ctx := context.Background()
	open := func() (uint64, []Event) {
		sid, err := hub.Open()
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if _, err := hub.Query(ctx, sid, "hospital"); err != nil {
			t.Fatalf("Query: %v", err)
		}
		var steps []Event
		for i := 0; i < 2; i++ {
			ev, err := hub.Step(ctx, sid, 1)
			if err != nil || ev.Done {
				t.Fatalf("Step: %v done=%v", err, ev.Done)
			}
			steps = append(steps, ev)
		}
		return sid, steps
	}
	sidA, steps := open()
	sidB, _ := open()

	ev, err := hub.OpenObject(ctx, sidA, steps[0].Obj)
	if err != nil {
		t.Fatalf("OpenObject: %v", err)
	}
	view, err := hub.ViewPNG(sidA)
	if err != nil {
		t.Fatalf("ViewPNG: %v", err)
	}
	if &view[0] != &ev.PNG[0] {
		t.Fatal("view.png after an open re-encoded the screen instead of sharing the event's bytes")
	}
	if st := hub.Stats(); st.ViewEncodes != 1 || st.ViewReuses != 1 {
		t.Fatalf("after open + view: encodes=%d reuses=%d, want 1 and 1", st.ViewEncodes, st.ViewReuses)
	}

	// The same object opened in another session renders the same pixels,
	// but the entry is the session's own.
	evB, err := hub.OpenObject(ctx, sidB, steps[0].Obj)
	if err != nil {
		t.Fatalf("OpenObject (second session): %v", err)
	}
	if !bytes.Equal(evB.PNG, ev.PNG) {
		t.Fatal("the same object rendered differently in a second session")
	}
	if &evB.PNG[0] == &ev.PNG[0] {
		t.Fatal("two sessions share one view entry")
	}

	// A different object on session A changes the screen: new bytes, and
	// the event already handed out is untouched.
	before := append([]byte(nil), ev.PNG...)
	ev2, err := hub.OpenObject(ctx, sidA, steps[1].Obj)
	if err != nil {
		t.Fatalf("OpenObject (second object): %v", err)
	}
	if bytes.Equal(ev2.PNG, before) {
		t.Fatal("a different object produced the same view bytes")
	}
	if !bytes.Equal(ev.PNG, before) {
		t.Fatal("a later encode wrote into bytes already handed out")
	}
	// A menu change alone is a screen change too.
	ws, _ := hub.Workstation(sidA)
	ws.Manager().Screen().SetMenu([]string{"ONLY OPTION"})
	view2, err := hub.ViewPNG(sidA)
	if err != nil {
		t.Fatalf("ViewPNG after a menu change: %v", err)
	}
	if bytes.Equal(view2, ev2.PNG) {
		t.Fatal("a menu change was answered with the stale view")
	}
	if st := hub.Stats(); st.ViewEncodes != 4 || st.ViewReuses != 1 {
		t.Fatalf("at the end: encodes=%d reuses=%d, want 4 and 1", st.ViewEncodes, st.ViewReuses)
	}
}

func BenchmarkEncodePNG(b *testing.B) {
	for _, bc := range []struct {
		name string
		bm   *img.Bitmap
	}{
		{"miniature", screenFrame().Downscale(4)},
		{"screen", screenFrame()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := encodePNG(bc.bm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
