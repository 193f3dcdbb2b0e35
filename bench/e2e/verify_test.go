package main

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"testing"
	"time"

	img "minos/internal/image"
	"minos/internal/object"
)

func monoPNG(t *testing.T, bm *img.Bitmap) []byte {
	t.Helper()
	pal := image.NewPaletted(image.Rect(0, 0, bm.W, bm.H), color.Palette{color.Gray{Y: 0xff}, color.Gray{Y: 0}})
	for y := 0; y < bm.H; y++ {
		for x := 0; x < bm.W; x++ {
			if bm.Get(x, y) {
				pal.SetColorIndex(x, y, 1)
			}
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, pal); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The negative self-test: a truncated PNG, a wrong hit count and a short
// PCM stream must each be caught, counted as failed ops, and turn the
// command's exit status non-zero.
func TestVerifierCatchesBadAnswers(t *testing.T) {
	bm := img.NewBitmap(64, 48)
	bm.Fill(img.Rect{X: 3, Y: 5, W: 20, H: 9}, true)
	good := monoPNG(t, bm)
	samples := make([]int16, 9000)
	for i := range samples {
		samples[i] = int16(i * 7)
	}
	v := &verifier{
		miniHash: map[object.ID]uint64{1: bm.Hash()},
		pcm:      map[object.ID]pcmSum{2: sumPCM(samples)},
	}
	if err := v.miniaturePNG(1, good); err != nil {
		t.Fatalf("intact PNG rejected: %v", err)
	}
	if err := v.pcmStream(2, sumPCM(samples)); err != nil {
		t.Fatalf("intact PCM rejected: %v", err)
	}
	q := query{Q: "grp0", Hits: 64}
	if err := v.hits(q, 64); err != nil {
		t.Fatalf("right hit count rejected: %v", err)
	}

	bad := []error{
		v.miniaturePNG(1, good[:len(good)/2]),
		v.hits(q, 63),
		v.pcmStream(2, sumPCM(samples[:len(samples)-1])),
	}
	flipped := bm.Clone()
	flipped.Set(0, 0, true)
	bad = append(bad, v.miniaturePNG(1, monoPNG(t, flipped)), v.viewPNG(monoPNG(t, img.NewBitmap(viewW, viewH))))
	for i, err := range bad {
		if err == nil {
			t.Errorf("bad answer %d passed verification", i)
		}
	}

	// Feed them through a client loop, as deep-check failures.
	rn := &runner{}
	rn.phase.Store(1)
	var recs recorders
	i := 0
	rn.loop(&recs, func(*recorder) opResult {
		err := bad[i]
		if i++; i == len(bad) {
			rn.phase.Store(phaseDone)
		}
		now := time.Now()
		return opResult{start: now, first: now, end: now, err: err}
	})
	if recs[1].failed != int64(len(bad)) || recs[1].attempted != int64(len(bad)) {
		t.Fatalf("recorded %d failed of %d attempted, want %d of %d", recs[1].failed, recs[1].attempted, len(bad), len(bad))
	}
	res := &workloadResult{Attempted: recs[1].attempted, Failed: recs[1].failed}
	if res.correct() {
		t.Error("a run with failed verifications reports correct")
	}
	if code := exitCode([]*workloadResult{{Attempted: 10}, res}); code == 0 {
		t.Error("failed verifications leave the exit status 0")
	}
	if code := exitCode([]*workloadResult{{Attempted: 10}}); code != 0 {
		t.Errorf("a clean run exits %d", code)
	}
	if code := exitCode([]*workloadResult{{Attempted: 10, Guards: []guard{{Name: "g", OK: false}}}}); code == 0 {
		t.Error("a failed shape guard leaves the exit status 0")
	}
}
