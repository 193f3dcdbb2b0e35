package minos

import (
	"reflect"
	"testing"

	"minos/internal/loadgen"
)

// E-STREAM: streaming delivery over the mux vs the batch path, on the
// simulated 10 Mbit/s link (§4.2's interactive-response argument applied
// to long media). Four claims gated here, matching EXPERIMENTS.md:
//
//   - time-to-first-audio for a >=10 s spoken part is <= 1/5 of the batch
//     path's full-download time — playback starts while the part streams,
//     and the virtual-clock play-out never underruns;
//   - a progressive browse screen (every cell's miniature streamed
//     coarse-pass-first) is usable in <= 1/2 the time the batch miniature
//     call needs to deliver every cell complete;
//   - a mid-stream primary kill resumes the voice stream on the WORM
//     replica from the last delivered byte: one gapless, duplicate-free
//     copy, no restart;
//   - the steady-state serve path allocates nothing per streamed chunk
//     (marginal mallocs between a long and a short stream of the same
//     part, warm cache).

func runEStream(t *testing.T, cfg loadgen.StreamConfig) loadgen.StreamResult {
	t.Helper()
	res, err := loadgen.RunStream(cfg)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	t.Logf("E-STREAM voice: %.1fs part (%d bytes, %d chunks) ttfa=%v full-download=%v speedup=%.1fx underruns=%d",
		res.VoiceSeconds, res.VoiceBytes, res.VoiceChunks, res.TTFA, res.VoiceFullDownload, res.TTFASpeedup, res.Underruns)
	t.Logf("E-STREAM screen: %d cells usable=%v full=%v ratio=%.2f (coarse %dB vs batch %dB)",
		res.ScreenCells, res.ScreenUsable, res.ScreenFull, res.UsableRatio, res.CoarseFrameBytes, res.BatchFrameBytes)
	t.Logf("E-STREAM failover: ok=%v delivered=%d resumes=%d; allocs/chunk=%.3f",
		res.FailoverOK, res.FailoverDelivered, res.FailoverResumes, res.AllocsPerChunk)
	return res
}

// TestEStream is the headline acceptance run: the full >=10 s part and the
// 96-cell browse screen.
func TestEStream(t *testing.T) {
	res := runEStream(t, loadgen.StreamConfig{Seed: 1986})

	// Voice: >=10 s of PCM, first audio at <= 1/5 of the full download.
	if res.VoiceSeconds < 10 {
		t.Fatalf("spoken part is %.1fs, want >= 10s", res.VoiceSeconds)
	}
	if res.TTFA <= 0 || res.TTFA*5 > res.VoiceFullDownload {
		t.Fatalf("ttfa %v vs full download %v: below the 5x acceptance bar", res.TTFA, res.VoiceFullDownload)
	}
	if res.Underruns != 0 {
		t.Fatalf("%d playback underruns on a link 10x faster than the device", res.Underruns)
	}
	// Screen: usable (all coarse passes in) at <= 1/2 of the batch delivery.
	if res.ScreenUsable <= 0 || 2*res.ScreenUsable > res.ScreenFull {
		t.Fatalf("screen usable at %v vs batch full at %v: below the 2x acceptance bar",
			res.ScreenUsable, res.ScreenFull)
	}
	// Failover: resumed on the replica, byte-exact, no restart.
	if !res.FailoverOK {
		t.Fatalf("mid-stream failover did not deliver a gapless part: %+v", res)
	}
	if res.FailoverResumes < 1 {
		t.Fatalf("stream resumes = %d, want >= 1", res.FailoverResumes)
	}
	// Alloc guard: zero steady-state allocations per streamed chunk.
	if res.AllocsPerChunk != 0 {
		t.Fatalf("voice serve allocates %.3f objects per chunk, want 0", res.AllocsPerChunk)
	}
}

// TestEStreamDeterminism: identical configs produce identical measurements
// (the virtual clock and the modelled link leave nothing to the scheduler).
func TestEStreamDeterminism(t *testing.T) {
	cfg := loadgen.StreamConfig{Seed: 7, VoiceSeconds: 4, ScreenCells: 12}
	a, err := loadgen.RunStream(cfg)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	b, err := loadgen.RunStream(cfg)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	// The alloc leg measures the live heap; compare the modelled fields.
	a.AllocsPerChunk, b.AllocsPerChunk = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("E-STREAM diverged between identical runs:\n%+v\n%+v", a, b)
	}
}

// TestEStreamSmoke is the `make stream-smoke` gate: a short spoken part and
// a small screen, cheap enough for every `make check`. First audio must
// beat the batch full download by >= 2x and the failover must hold.
func TestEStreamSmoke(t *testing.T) {
	res := runEStream(t, loadgen.StreamConfig{
		Seed:         99,
		VoiceSeconds: 3,
		ScreenCells:  8,
		AllocRounds:  4,
	})
	if res.TTFA <= 0 || res.TTFA*2 > res.VoiceFullDownload {
		t.Fatalf("ttfa %v vs full download %v: streaming lost its head start", res.TTFA, res.VoiceFullDownload)
	}
	if res.Underruns != 0 {
		t.Fatalf("%d underruns in the smoke run", res.Underruns)
	}
	// At 8 cells the fixed round-trip dominates, so the smoke only asserts
	// the ordering; the 2x screen bar is TestEStream's, at full screen size.
	if res.ScreenUsable <= 0 || res.ScreenUsable >= res.ScreenFull {
		t.Fatalf("smoke screen usable at %v vs full at %v: no progressive head start", res.ScreenUsable, res.ScreenFull)
	}
	if !res.FailoverOK {
		t.Fatal("smoke failover did not deliver a gapless part")
	}
}
