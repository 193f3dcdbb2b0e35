package image

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The per-pixel bodies the byte-parallel kernels replaced, kept as the
// reference the differential tests compare against.

func refFill(b *Bitmap, r Rect, v bool) {
	for y := r.Y; y < r.Y+r.H; y++ {
		for x := r.X; x < r.X+r.W; x++ {
			b.Set(x, y, v)
		}
	}
}

func refPopCount(b *Bitmap) int {
	n := 0
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Get(x, y) {
				n++
			}
		}
	}
	return n
}

func refOr(b, src *Bitmap, dx, dy int) {
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			if src.Get(x, y) {
				b.Set(dx+x, dy+y, true)
			}
		}
	}
}

func refBlit(b, src *Bitmap, dx, dy int) {
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			b.Set(dx+x, dy+y, src.Get(x, y))
		}
	}
}

func refExtract(b *Bitmap, r Rect) *Bitmap {
	out := NewBitmap(r.W, r.H)
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			if b.Get(r.X+x, r.Y+y) {
				out.Set(x, y, true)
			}
		}
	}
	return out
}

func refBlitMasked(b, src, mask *Bitmap, dx, dy int) {
	for y := 0; y < mask.H; y++ {
		for x := 0; x < mask.W; x++ {
			if mask.Get(x, y) {
				b.Set(dx+x, dy+y, src.Get(x, y))
			}
		}
	}
}

// kernelWidths covers one pixel, one short of a byte, a byte, one over, an
// odd multi-byte width, a word, and the gateway's screen width.
var kernelWidths = []int{1, 7, 8, 9, 61, 64, 240}

func randomBitmap(rng *rand.Rand, w, h int) *Bitmap {
	b := NewBitmap(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if rng.Intn(2) == 1 {
				b.Set(x, y, true)
			}
		}
	}
	return b
}

// dirtyPad sets every pad bit of b, the way bytes decoded off the wire may
// arrive; a kernel must never let them through to a destination.
func dirtyPad(b *Bitmap) *Bitmap {
	if b.W%8 != 0 {
		for y := 0; y < b.H; y++ {
			b.bits[(y+1)*b.stride-1] |= 0xFF << (b.W % 8)
		}
	}
	return b
}

func checkPadZero(t *testing.T, what string, b *Bitmap) {
	t.Helper()
	if b.W%8 == 0 {
		return
	}
	for y := 0; y < b.H; y++ {
		if pad := b.bits[(y+1)*b.stride-1] >> (b.W % 8); pad != 0 {
			t.Fatalf("%s: row %d of a %dx%d bitmap has pad bits %#x set", what, y, b.W, b.H, pad)
		}
	}
}

func checkSame(t *testing.T, what string, got, want *Bitmap) {
	t.Helper()
	if got.W != want.W || got.H != want.H || !bytes.Equal(got.Raw(), want.Raw()) {
		t.Fatalf("%s: kernel and per-pixel reference differ\n got:\n%s want:\n%s", what, got.ASCII(), want.ASCII())
	}
	checkPadZero(t, what, got)
}

// kernelOffsets sweeps one axis of a placement: fully outside on either
// side, straddling each edge, byte-aligned and every shift 1-7.
func kernelOffsets(n int) []int {
	var offs []int
	for d := -n - 3; d <= n+3; d++ {
		offs = append(offs, d)
	}
	return offs
}

func TestKernelsMatchPerPixelReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dw := range kernelWidths {
		for _, sw := range []int{1, 7, 9, dw, dw + 5} { // narrower, equal and wider than the destination
			const dh, sh = 5, 4
			dst := randomBitmap(rng, dw, dh)
			src := dirtyPad(randomBitmap(rng, sw, sh))
			mask := dirtyPad(randomBitmap(rng, sw+2, sh+1)) // larger than src: masked pixels outside src copy clear
			for _, dx := range kernelOffsets(dw) {
				for _, dy := range kernelOffsets(dh) {
					at := fmt.Sprintf("dst %dx%d src %dx%d at (%d,%d)", dw, dh, sw, sh, dx, dy)

					got, want := dst.Clone(), dst.Clone()
					got.Or(src, dx, dy)
					refOr(want, src, dx, dy)
					checkSame(t, "Or "+at, got, want)

					got, want = dst.Clone(), dst.Clone()
					got.Blit(src, dx, dy)
					refBlit(want, src, dx, dy)
					checkSame(t, "Blit "+at, got, want)

					got, want = dst.Clone(), dst.Clone()
					got.BlitMasked(src, mask, dx, dy)
					refBlitMasked(want, src, mask, dx, dy)
					checkSame(t, "BlitMasked "+at, got, want)

					// The same placement read the other way: a window of
					// src's size cut out of dst.
					r := Rect{X: dx, Y: dy, W: sw, H: sh}
					checkSame(t, "Extract "+at, dirtyPad(dst.Clone()).Extract(r), refExtract(dst, r))

					for _, v := range []bool{true, false} {
						got, want = dst.Clone(), dst.Clone()
						got.Fill(r, v)
						refFill(want, r, v)
						checkSame(t, fmt.Sprintf("Fill(%v) %s", v, at), got, want)
					}
				}
			}
		}
		b := randomBitmap(rng, dw, 6)
		want := refPopCount(b)
		if got := dirtyPad(b).PopCount(); got != want {
			t.Fatalf("PopCount of a %dx6 bitmap = %d, per-pixel reference %d", dw, got, want)
		}
	}
}

func TestKernelsEmptyRectangles(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	dst := randomBitmap(rng, 61, 9)
	before := dst.Clone()
	for _, src := range []*Bitmap{NewBitmap(0, 0), NewBitmap(0, 5), NewBitmap(5, 0)} {
		dst.Or(src, 3, 3)
		dst.Blit(src, 3, 3)
		dst.BlitMasked(src, src, 3, 3)
		dst.BlitMasked(before, src, 3, 3)
	}
	for _, r := range []Rect{{X: 3, Y: 3}, {X: 3, Y: 3, W: 4}, {X: 3, Y: 3, H: 4}, {X: 3, Y: 3, W: -2, H: 4}, {X: 70, Y: 3, W: 4, H: 4}} {
		dst.Fill(r, true)
		dst.Fill(r, false)
	}
	checkSame(t, "empty rectangles", dst, before)
	if out := dst.Extract(Rect{X: 3, Y: 3}); out.W != 0 || out.H != 0 || out.PopCount() != 0 {
		t.Fatalf("Extract of an empty rectangle = %dx%d", out.W, out.H)
	}
	empty := NewBitmap(0, 4)
	empty.Or(dst, -2, 0)
	empty.Fill(Rect{W: 8, H: 8}, true)
	if empty.PopCount() != 0 {
		t.Fatal("a zero-width bitmap gained pixels")
	}
}

// TestBitmapHashPinned pins Hash to the values the hash/fnv implementation
// at commit 782ed35 produced for the same bitmaps: the golden browse traces
// and every stored Screen.Snapshot depend on them.
func TestBitmapHashPinned(t *testing.T) {
	dot := NewBitmap(1, 1)
	dot.Set(0, 0, true)
	wide := NewBitmap(300, 2)
	wide.Set(299, 1, true)
	pat := func(w, h int) *Bitmap {
		b := NewBitmap(w, h)
		for i := 0; i < 400; i++ {
			b.Set((i*13)%w, (i*29)%h, true)
		}
		return b
	}
	for _, tc := range []struct {
		b    *Bitmap
		want uint64
	}{
		{NewBitmap(0, 0), 0x4d25767f9dce13f5},
		{dot, 0xe0b6e6aeacc47be4},
		{wide, 0xa5b74432a5659bf4},
		{pat(61, 37), 0x251a3cf03ad66f30},
		{pat(240, 140), 0x8d28ca1f1215c14f},
	} {
		if got := tc.b.Hash(); got != tc.want {
			t.Errorf("Hash of the %dx%d case = %#016x, pinned %#016x", tc.b.W, tc.b.H, got, tc.want)
		}
	}
	b := pat(240, 140)
	if avg := testing.AllocsPerRun(20, func() { b.Hash() }); avg != 0 {
		t.Errorf("Hash allocates %.1f objects/call, want 0", avg)
	}
}

// FuzzBitmapOr drives Or with arbitrary geometry and pixels against the
// per-pixel reference; the seeds are the differential table's edge cases.
func FuzzBitmapOr(f *testing.F) {
	for _, w := range kernelWidths {
		for _, d := range []int{-w - 3, -w, -9, -8, -7, -1, 0, 1, 7, 8, 9, w - 1, w, w + 3} {
			f.Add(uint8(w), uint8(5), uint8(w+5), uint8(4), int16(d), int16(d%5), int64(w*1000+d))
		}
	}
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), int16(0), int16(0), int64(0))
	f.Fuzz(func(t *testing.T, dw, dh, sw, sh uint8, dx, dy int16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		dst := randomBitmap(rng, int(dw), int(dh)%32)
		src := dirtyPad(randomBitmap(rng, int(sw), int(sh)%32))
		want := dst.Clone()
		refOr(want, src, int(dx), int(dy))
		dst.Or(src, int(dx), int(dy))
		checkSame(t, fmt.Sprintf("Or dst %dx%d src %dx%d at (%d,%d)", dst.W, dst.H, src.W, src.H, dx, dy), dst, want)
	})
}

func BenchmarkBitmapOr(b *testing.B) {
	dst := NewBitmap(240, 140)
	src := randomBitmap(rand.New(rand.NewSource(1)), 180, 140)
	b.Run("aligned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst.Or(src, 8, 0)
		}
	})
	b.Run("shifted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst.Or(src, 3, 0)
		}
	})
	b.Run("perpixel", func(b *testing.B) { // the replaced body, for the ratio
		for i := 0; i < b.N; i++ {
			refOr(dst, src, 3, 0)
		}
	})
}
