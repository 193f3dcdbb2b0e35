// PNG serving: the gateway turns the workstation's 1-bit bitmaps into
// browser-viewable PNGs and caches the encoded bytes the way the server
// caches encoded miniature frames (server.MiniatureEncoded): encode once,
// serve bytes thereafter. A Bitmap row is already a bit-depth-1 PNG
// scanline apart from the bit order, so the raster is never unpacked.
//
// Ownership rules (DESIGN.md §11): the deflate state and buffers used
// during an encode belong to one pooled pngEncoder, which the encode owns
// alone from Get to Put. The returned PNG bytes are heap-allocated and
// immutable; once inside a cache they are shared by every subsequent hit,
// so nothing may ever write to or Release them. A warm hit therefore
// touches no pooled memory at all.
package gateway

import (
	"bufio"
	"bytes"
	"compress/zlib"
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"

	img "minos/internal/image"
	"minos/internal/object"
)

// pngEncoder is the reusable state of one encode: the zlib stream, the
// 32 KiB buffer whose flushes become IDAT chunks, and one scanline.
type pngEncoder struct {
	w   io.Writer // destination of the chunk being written
	err error     // first chunk-write failure
	bw  *bufio.Writer
	zw  *zlib.Writer
	row []byte
	// Chunk framing scratch, held here so it does not escape per chunk.
	head [8]byte
	crc  [4]byte
	ihdr [13]byte
}

// pngPalette is the PLTE body: index 0 = paper (white), 1 = ink (black).
var pngPalette = []byte{0xff, 0xff, 0xff, 0, 0, 0}

var pngEncoders = sync.Pool{New: func() any {
	e := &pngEncoder{}
	e.bw = bufio.NewWriterSize(idatWriter{e}, 1<<15)
	e.zw = zlib.NewWriter(e.bw)
	return e
}}

// idatWriter turns each flush of the compressed stream into an IDAT chunk.
type idatWriter struct{ e *pngEncoder }

func (w idatWriter) Write(p []byte) (int, error) {
	w.e.chunk("IDAT", p)
	if w.e.err != nil {
		return 0, w.e.err
	}
	return len(p), nil
}

// chunk writes one PNG chunk: length, type, data, CRC-32 of type and data.
func (e *pngEncoder) chunk(typ string, data []byte) {
	if e.err != nil {
		return
	}
	binary.BigEndian.PutUint32(e.head[:4], uint32(len(data)))
	copy(e.head[4:], typ)
	binary.BigEndian.PutUint32(e.crc[:], crc32.Update(crc32.ChecksumIEEE(e.head[4:]), crc32.IEEETable, data))
	for _, part := range [3][]byte{e.head[:], data, e.crc[:]} {
		if _, e.err = e.w.Write(part); e.err != nil {
			return
		}
	}
}

// encode writes bm to w as a bit-depth-1 paletted PNG, set bits black on
// white like the era's displays printed. The chunking (one 32 KiB buffer in
// front of the IDAT writer), the compression level and the filter (none)
// are what the standard library's encoder chooses for a two-colour
// palette, so the bytes equal its output for the same pixels.
func (e *pngEncoder) encode(w io.Writer, bm *img.Bitmap) error {
	if bm.W <= 0 || bm.H <= 0 {
		return fmt.Errorf("gateway: cannot encode a %dx%d bitmap as PNG", bm.W, bm.H)
	}
	e.w = w
	_, e.err = io.WriteString(w, "\x89PNG\r\n\x1a\n")
	binary.BigEndian.PutUint32(e.ihdr[0:4], uint32(bm.W))
	binary.BigEndian.PutUint32(e.ihdr[4:8], uint32(bm.H))
	e.ihdr[8], e.ihdr[9] = 1, 3 // bit depth 1, colour type 3 (palette); the rest stays 0
	e.chunk("IHDR", e.ihdr[:])
	e.chunk("PLTE", pngPalette)
	if e.err != nil {
		return e.err
	}

	e.bw.Reset(idatWriter{e})
	e.zw.Reset(e.bw)
	raw := bm.Raw()
	stride := (bm.W + 7) / 8
	if cap(e.row) < 1+stride {
		e.row = make([]byte, 1+stride)
	}
	row := e.row[:1+stride]
	row[0] = 0 // filter type: none
	pad := byte(0xFF) << (7 - (bm.W-1)&7)
	for y := 0; y < bm.H; y++ {
		// Bitmap rows are LSB-first, PNG scanlines MSB-first.
		for i, v := range raw[y*stride : (y+1)*stride] {
			row[1+i] = bits.Reverse8(v)
		}
		row[stride] &= pad // a PNG's pad bits are zero whatever the bitmap's are
		if _, err := e.zw.Write(row); err != nil {
			return err
		}
	}
	if err := e.zw.Close(); err != nil {
		return err
	}
	if err := e.bw.Flush(); err != nil {
		return err
	}
	e.chunk("IEND", nil)
	return e.err
}

// writePNG encodes bm to w through a pooled encoder. An encoder whose
// encode failed is dropped, not recycled: its stream state is mid-frame.
func writePNG(w io.Writer, bm *img.Bitmap) error {
	e := pngEncoders.Get().(*pngEncoder)
	err := e.encode(w, bm)
	e.w = nil
	if err != nil {
		return err
	}
	pngEncoders.Put(e)
	return nil
}

// encodePNG returns bm as a freshly allocated PNG.
func encodePNG(bm *img.Bitmap) ([]byte, error) {
	// A 1-bit raster of text and line art deflates to well under a quarter
	// of its packed size; a busier one just grows the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, 128+len(bm.Raw())/4))
	if err := writePNG(buf, bm); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// pngEntry is one cached encoding. The content hash guards against an id
// ever re-resolving to different pixels (the archive is write-once, so in
// practice it never does — the hash is the cheap proof, not a hope).
type pngEntry struct {
	id   object.ID
	hash uint64
	png  []byte
}

// pngCache is the gateway-wide encoded-PNG LRU, keyed by object id. It is
// shared by every session: miniatures are identical across sessions, so
// one session's encode warms every other's browse.
type pngCache struct {
	mu   sync.Mutex
	cap  int
	ll   *list.List
	byID map[object.ID]*list.Element

	hits, misses int64
}

func newPNGCache(capEntries int) *pngCache {
	return &pngCache{cap: capEntries, ll: list.New(), byID: map[object.ID]*list.Element{}}
}

// get returns the cached encoding for id. hash 0 accepts any content
// (serving by URL, no bitmap in hand); a nonzero hash must match.
func (c *pngCache) get(id object.ID, hash uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byID[id]
	if !ok {
		c.misses++
		return nil, false
	}
	ent := e.Value.(*pngEntry)
	if hash != 0 && ent.hash != hash {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(e)
	c.hits++
	return ent.png, true
}

func (c *pngCache) put(id object.ID, hash uint64, data []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byID[id]; ok {
		c.ll.MoveToFront(e)
		e.Value = &pngEntry{id: id, hash: hash, png: data}
		return
	}
	c.byID[id] = c.ll.PushFront(&pngEntry{id: id, hash: hash, png: data})
	for c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.byID, old.Value.(*pngEntry).id)
	}
}

// counters snapshots hit/miss totals.
func (c *pngCache) counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// miniaturePNG returns the browser encoding of a miniature bitmap,
// consulting the cache first. The caller keeps ownership of bm; the
// returned bytes are shared and immutable.
func (c *pngCache) miniaturePNG(id object.ID, bm *img.Bitmap) ([]byte, error) {
	h := bm.Hash()
	if data, ok := c.get(id, h); ok {
		return data, nil
	}
	data, err := encodePNG(bm)
	if err != nil {
		return nil, err
	}
	c.put(id, h, data)
	return data, nil
}
