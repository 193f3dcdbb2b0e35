package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"image"
	"image/png"
	"io"

	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// verifier checks answers against tables built at set-up. Cheap checks
// (status, hit counts, the step event's object id, playback accounting)
// run on every op; the expensive ones (PNG decode + pixel hash, PCM
// re-read) on one op in deepEvery, after the op's timer has stopped.
type verifier struct {
	miniHash map[object.ID]uint64
	pcm      map[object.ID]pcmSum
}

const (
	deepEvery = 32
	viewW     = 240
	viewH     = 140
)

func (v *verifier) hits(q query, got int) error {
	if got != q.Hits {
		return fmt.Errorf("query %q: %d hits, want %d", q.Q, got, q.Hits)
	}
	return nil
}

// decodeMono decodes a gateway PNG back into a 1-bit bitmap (ink = dark).
func decodeMono(data []byte) (*img.Bitmap, error) {
	im, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("png: %w", err)
	}
	b := im.Bounds()
	bm := img.NewBitmap(b.Dx(), b.Dy())
	pal, _ := im.(*image.Paletted)
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			var ink bool
			if pal != nil {
				ink = pal.ColorIndexAt(b.Min.X+x, b.Min.Y+y) == 1
			} else {
				r, g, bl, _ := im.At(b.Min.X+x, b.Min.Y+y).RGBA()
				ink = r+g+bl < 3*0x8000
			}
			if ink {
				bm.Set(x, y, true)
			}
		}
	}
	return bm, nil
}

// miniaturePNG checks that data decodes to exactly the pixels the owning
// server holds for id (the hash covers the geometry too).
func (v *verifier) miniaturePNG(id object.ID, data []byte) error {
	want, ok := v.miniHash[id]
	if !ok {
		return fmt.Errorf("miniature %d: no expected hash", id)
	}
	bm, err := decodeMono(data)
	if err != nil {
		return fmt.Errorf("miniature %d: %w", id, err)
	}
	if got := bm.Hash(); got != want {
		return fmt.Errorf("miniature %d: pixel hash %x, want %x (%dx%d)", id, got, want, bm.W, bm.H)
	}
	return nil
}

// viewPNG checks a rendered screen: the session geometry, and not blank.
func (v *verifier) viewPNG(data []byte) error {
	bm, err := decodeMono(data)
	if err != nil {
		return fmt.Errorf("view: %w", err)
	}
	if bm.W != viewW || bm.H != viewH {
		return fmt.Errorf("view: %dx%d, want %dx%d", bm.W, bm.H, viewW, viewH)
	}
	if bm.PopCount() == 0 {
		return errors.New("view: blank screen")
	}
	return nil
}

// playback checks one streamed voice op's accounting.
func (v *verifier) playback(id object.ID, pb workstation.VoicePlayback) error {
	want, ok := v.pcm[id]
	switch {
	case !ok:
		return fmt.Errorf("voice %d: no expected PCM", id)
	case !pb.Streamed:
		return fmt.Errorf("voice %d: batch fallback, not streamed", id)
	case pb.TotalBytes != want.Bytes:
		return fmt.Errorf("voice %d: %d PCM bytes, want %d", id, pb.TotalBytes, want.Bytes)
	case pb.Chunks != int((want.Bytes+wire.StreamChunkBytes-1)/wire.StreamChunkBytes):
		return fmt.Errorf("voice %d: %d chunks for %d bytes", id, pb.Chunks, want.Bytes)
	case pb.Underruns != 0:
		return fmt.Errorf("voice %d: %d underruns", id, pb.Underruns)
	}
	return nil
}

// pcmStream checks a delivered PCM stream's length and content hash.
func (v *verifier) pcmStream(id object.ID, got pcmSum) error {
	if want := v.pcm[id]; got != want {
		return fmt.Errorf("voice %d: stream %d bytes hash %x, want %d bytes hash %x", id, got.Bytes, got.Hash, want.Bytes, want.Hash)
	}
	return nil
}

// rereadPCM streams id's voice part through the Backend seam and sums it.
func rereadPCM(ctx context.Context, be workstation.Backend, id object.ID) (pcmSum, error) {
	_, sc, err := be.VoiceStreamCtx(ctx, id, 0, 16*wire.StreamChunkBytes)
	if err != nil {
		return pcmSum{}, err
	}
	defer sc.Close()
	h := fnv.New64a()
	var n uint64
	for {
		ch, err := sc.Recv()
		if err == io.EOF {
			return pcmSum{Bytes: n, Hash: h.Sum64()}, nil
		}
		if err != nil {
			return pcmSum{}, err
		}
		h.Write(ch.Data)
		n += uint64(len(ch.Data))
		sc.Grant(len(ch.Data))
	}
}
