// Package image implements the image part of a MINOS multimedia object:
// bitmaps, graphics objects with labels, views (windows) on large images,
// and representation images (miniatures).
//
// Per the paper (§2): "Images in MINOS may be bitmaps or graphics. Images
// with graphics contain graphics objects such as points, polygons,
// polylines, circles, etc. Graphics objects may have a label associated
// with them" and labels may be text labels, voice labels, or invisible.
package image

import (
	"fmt"
	"math/bits"
	"strings"

	"minos/internal/pool"
)

// Bitmap is a 1-bit raster, matching the bitmapped displays of the paper's
// era. Rows are packed 8 pixels per byte, row-major.
type Bitmap struct {
	W, H   int
	stride int
	bits   []byte
}

// NewBitmap allocates a cleared bitmap. Pixel storage is drawn from the
// process buffer pool; a caller that provably holds the last reference may
// hand it back with Release, and a bitmap that is never released is simply
// garbage collected.
func NewBitmap(w, h int) *Bitmap {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("image: NewBitmap(%d, %d)", w, h))
	}
	stride := (w + 7) / 8
	return &Bitmap{W: w, H: h, stride: stride, bits: pool.Bytes.GetZeroed(stride * h)}
}

// Release returns the pixel storage to the buffer pool and empties the
// bitmap (0x0, so stray use afterwards reads false / writes nowhere rather
// than scribbling on recycled memory). Only the last holder of the bitmap —
// and of any slice obtained via Raw — may call it; releasing is optional.
func (b *Bitmap) Release() {
	if b == nil || b.bits == nil {
		return
	}
	pool.Bytes.Put(b.bits)
	b.bits = nil
	b.W, b.H, b.stride = 0, 0, 0
}

// Raw exposes the packed pixel storage: rows of stride (W+7)/8 bytes, 8
// pixels per byte, bit x%8 of byte y*stride+x/8. The slice is shared with
// the bitmap — treat it as read-only unless you own the bitmap outright,
// and do not retain it past Release.
func (b *Bitmap) Raw() []byte { return b.bits }

// ByteSize returns the storage footprint of the raster in bytes; the
// view/miniature transfer experiments report this.
func (b *Bitmap) ByteSize() int { return len(b.bits) }

// In reports whether (x, y) lies inside the bitmap.
func (b *Bitmap) In(x, y int) bool { return x >= 0 && x < b.W && y >= 0 && y < b.H }

// Set sets pixel (x, y) to v; out-of-range writes are ignored so drawing
// primitives can clip trivially.
func (b *Bitmap) Set(x, y int, v bool) {
	if !b.In(x, y) {
		return
	}
	idx := y*b.stride + x/8
	mask := byte(1) << (x % 8)
	if v {
		b.bits[idx] |= mask
	} else {
		b.bits[idx] &^= mask
	}
}

// Get returns pixel (x, y); out-of-range reads are false.
func (b *Bitmap) Get(x, y int) bool {
	if !b.In(x, y) {
		return false
	}
	return b.bits[y*b.stride+x/8]&(byte(1)<<(x%8)) != 0
}

// Fill sets every pixel in the rectangle to v.
func (b *Bitmap) Fill(r Rect, v bool) {
	r = r.Clip(Rect{W: b.W, H: b.H})
	if r.Area() == 0 {
		return
	}
	sp := spanOf(r.X, r.W)
	for y := r.Y; y < r.Y+r.H; y++ {
		row := b.row(y)
		for i := sp.first; i <= sp.last; i++ {
			if v {
				row[i] |= sp.mask(i)
			} else {
				row[i] &^= sp.mask(i)
			}
		}
	}
}

// PopCount returns the number of set pixels; tests use it to assert
// compositing behaviour cheaply.
func (b *Bitmap) PopCount() int {
	n := 0
	sp := spanOf(0, b.W)
	for y := 0; y < b.H; y++ {
		for i, v := range b.row(y) {
			n += bits.OnesCount8(v & sp.mask(i))
		}
	}
	return n
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	nb := NewBitmap(b.W, b.H)
	copy(nb.bits, b.bits)
	return nb
}

// Or draws src onto b at (dx, dy) with OR semantics: set pixels turn on,
// clear pixels leave the destination alone. This is the transparency
// compositing operation.
func (b *Bitmap) Or(src *Bitmap, dx, dy int) { b.combine(src, dx, dy, false) }

// Blit copies src onto b at (dx, dy), overwriting both set and clear pixels
// within src's rectangle.
func (b *Bitmap) Blit(src *Bitmap, dx, dy int) { b.combine(src, dx, dy, true) }

// BlitMasked copies src onto b at (dx, dy) wherever mask — laid over src,
// origin on origin — has a set pixel; every other destination pixel is left
// alone. Masked pixels outside src copy as clear.
func (b *Bitmap) BlitMasked(src, mask *Bitmap, dx, dy int) {
	r := b.overlap(mask, dx, dy)
	if r.Area() == 0 {
		return
	}
	sp := spanOf(r.X, r.W)
	for y := r.Y; y < r.Y+r.H; y++ {
		drow, mrow := b.row(y), mask.row(y-dy)
		var srow []byte
		if y-dy < src.H {
			srow = src.row(y - dy)
		}
		for i := sp.first; i <= sp.last; i++ {
			if m := mask.fetch8(mrow, i*8-dx) & sp.mask(i); m != 0 {
				drow[i] = drow[i]&^m | src.fetch8(srow, i*8-dx)&m
			}
		}
	}
}

// Extract copies the rectangle r (clipped to the bitmap) into a new bitmap
// of r's size. It is the core of view retrieval: the server ships only
// these bytes.
func (b *Bitmap) Extract(r Rect) *Bitmap {
	out := NewBitmap(r.W, r.H)
	out.Or(b, -r.X, -r.Y)
	return out
}

// The raster kernels below work a packed byte of a row at a time. They rely
// on, and preserve, one invariant: the pad bits of a row — bits W%8..7 of
// its last byte when W is not a multiple of 8 — are zero. Hash covers them,
// so a stray pad bit would change a screen's snapshot identity. A kernel
// never writes outside the clipped rectangle and never lets a source's pad
// bits through (bitmap bytes decoded off the wire are stored as received).

// row returns the packed bytes of row y.
func (b *Bitmap) row(y int) []byte { return b.bits[y*b.stride : (y+1)*b.stride] }

// overlap clips src placed at (dx, dy) against b and returns the covered
// destination rectangle; the matching source origin is (X-dx, Y-dy).
func (b *Bitmap) overlap(src *Bitmap, dx, dy int) Rect {
	return Rect{X: dx, Y: dy, W: src.W, H: src.H}.Clip(Rect{W: b.W, H: b.H})
}

// span is the bytes of a row a run of bits touches, with the masks of the
// bits the run owns in the first and the last of them.
type span struct {
	first, last int
	fm, lm      byte
}

// spanOf returns the span of w bits starting at bit x (empty, last < first,
// for w == 0).
func spanOf(x, w int) span {
	end := x + w - 1
	return span{x >> 3, end >> 3, 0xFF << (x & 7), 0xFF >> (7 - end&7)}
}

// mask returns the bits of byte i (first <= i <= last) the run owns.
func (s span) mask(i int) byte {
	m := byte(0xFF)
	if i == s.first {
		m &= s.fm
	}
	if i == s.last {
		m &= s.lm
	}
	return m
}

// fetch8 returns the 8 pixels of row (a row of b) starting at bit p, which
// may be negative or run past the end; pixels outside [0, W) read clear.
func (b *Bitmap) fetch8(row []byte, p int) byte {
	if p <= -8 || p >= b.W || len(row) == 0 {
		return 0
	}
	j, sh := p>>3, uint(p&7)
	var v byte
	if j >= 0 {
		v = row[j] >> sh
	}
	if sh != 0 && j+1 < len(row) {
		v |= row[j+1] << (8 - sh)
	}
	if p+8 > b.W {
		v &= 0xFF >> (p + 8 - b.W)
	}
	return v
}

// combine is Or (replace false) and Blit (replace true): the rectangle is
// clipped once, the two edge bytes of each row go through fetch8 and their
// masks, and the bytes between are whole-byte shifts of the source row.
func (b *Bitmap) combine(src *Bitmap, dx, dy int, replace bool) {
	r := b.overlap(src, dx, dy)
	if r.Area() == 0 {
		return
	}
	sp := spanOf(r.X, r.W)
	off, sh := (-dx)>>3, uint(-dx&7) // source bit = destination bit - dx
	for y := r.Y; y < r.Y+r.H; y++ {
		drow, srow := b.row(y), src.row(y-dy)
		for _, i := range [2]int{sp.first, sp.last} {
			v, m := src.fetch8(srow, i*8-dx), sp.mask(i)
			if replace {
				drow[i] &^= m
			}
			drow[i] |= v & m
		}
		if sp.last == sp.first {
			continue
		}
		// Every bit of an interior byte lies inside the clipped rectangle,
		// so its source bytes exist: no bounds or pad handling needed.
		d, s := drow[sp.first+1:sp.last], srow[sp.first+1+off:]
		if replace {
			clear(d)
		}
		if sh == 0 {
			for i := range d {
				d[i] |= s[i]
			}
		} else {
			for i := range d {
				d[i] |= s[i]>>sh | s[i+1]<<(8-sh)
			}
		}
	}
}

// Downscale returns a miniature reduced by integer factor f using a
// majority-of-ones box filter. Representation images ("miniatures") are
// "much smaller than the image itself, and thus ... easily transferable to
// main memory" (§2).
func (b *Bitmap) Downscale(f int) *Bitmap {
	if f <= 1 {
		return b.Clone()
	}
	out := NewBitmap((b.W+f-1)/f, (b.H+f-1)/f)
	for oy := 0; oy < out.H; oy++ {
		for ox := 0; ox < out.W; ox++ {
			ones, total := 0, 0
			for y := oy * f; y < (oy+1)*f && y < b.H; y++ {
				for x := ox * f; x < (ox+1)*f && x < b.W; x++ {
					total++
					if b.Get(x, y) {
						ones++
					}
				}
			}
			if total > 0 && ones*3 >= total {
				out.Set(ox, oy, true)
			}
		}
	}
	return out
}

// Hash returns a stable content hash used by tests, screen snapshots and
// the gateway's encode-once check: 64-bit FNV-1a over the low 16 bits of
// each dimension (little-endian) followed by the packed rows, pad bits
// included.
func (b *Bitmap) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range [4]byte{byte(b.W), byte(b.W >> 8), byte(b.H), byte(b.H >> 8)} {
		h = (h ^ uint64(c)) * prime64
	}
	for _, c := range b.bits {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// ASCII renders the bitmap as '#' and '.' rows, for golden tests and the
// CLI's snapshot output.
func (b *Bitmap) ASCII() string {
	var sb strings.Builder
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Get(x, y) {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Rect is an axis-aligned rectangle.
type Rect struct {
	X, Y, W, H int
}

// Contains reports whether the point lies inside the rectangle.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// Intersects reports whether two rectangles overlap.
func (r Rect) Intersects(o Rect) bool {
	return r.X < o.X+o.W && o.X < r.X+r.W && r.Y < o.Y+o.H && o.Y < r.Y+r.H
}

// Clip returns r clipped to the bounds rectangle.
func (r Rect) Clip(bounds Rect) Rect {
	x1 := max(r.X, bounds.X)
	y1 := max(r.Y, bounds.Y)
	x2 := min(r.X+r.W, bounds.X+bounds.W)
	y2 := min(r.Y+r.H, bounds.Y+bounds.H)
	if x2 < x1 {
		x2 = x1
	}
	if y2 < y1 {
		y2 = y1
	}
	return Rect{X: x1, Y: y1, W: x2 - x1, H: y2 - y1}
}

// Area returns the rectangle's area in pixels.
func (r Rect) Area() int { return r.W * r.H }
