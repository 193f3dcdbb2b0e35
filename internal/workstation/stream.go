package workstation

import (
	"context"
	"fmt"
	"io"
	"time"

	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/wire"
)

// Streaming presentation: instead of fetching a voice part or a miniature
// as one response and presenting it afterwards, the session opens a
// credit-based server-push stream and presents while fetching — playback
// starts after the first PCM chunk, a browse screen shows a usable (coarse)
// miniature after the first progressive pass. A backend whose transport
// cannot open streams fails the open with wire.ErrStreamUnsupported;
// StreamFallback routes those sessions to the single-frame batch paths.

// voiceStreamWindow is the initial (and sustained) credit window for voice
// playback: a few chunks of headroom so the server stays ahead of the
// device without buffering the whole part at the workstation.
const voiceStreamWindow = 16 * wire.StreamChunkBytes

// miniatureStreamWindow comfortably covers every progressive pass of a
// browse-cell miniature in one grant.
const miniatureStreamWindow = 64 << 10

// VoicePlayback reports one streamed voice playback.
type VoicePlayback struct {
	Rate       int
	TotalBytes uint64
	// Streamed is false when the peer fell back to the batch preview path.
	Streamed bool
	// FirstAudio is the link time at which the first chunk arrived — the
	// moment playback could start, while the rest was still in flight.
	FirstAudio time.Duration
	// Done is the link time at which the stream's end frame arrived.
	Done time.Duration
	// Chunks counts data frames; Underruns counts playback stalls on the
	// delivery frontier.
	Chunks    int
	Underruns int
}

// PlayVoiceStreamCtx streams the voice part of an audio-mode object and
// plays while fetching: the message player enters streaming mode, playback
// starts as soon as the first chunk is fed, and chunks keep landing behind
// the playhead. advance, if non-nil, is called after each chunk (and once
// after the end frame) with the chunk's link arrival time — deterministic
// harnesses use it to drive the virtual clock while real sessions pass nil.
//
// A backend whose transport cannot open streams falls back to the batched
// voice preview path: same audible result for short parts, Streamed=false.
func (s *Session) PlayVoiceStreamCtx(ctx context.Context, id object.ID, advance func(at time.Duration)) (VoicePlayback, error) {
	info, sc, err := s.be.VoiceStreamCtx(ctx, id, 0, voiceStreamWindow)
	if err != nil {
		if wire.StreamFallback(err) {
			return s.playVoiceBatch(ctx, id)
		}
		return VoicePlayback{}, err
	}
	defer sc.Close()
	pb := VoicePlayback{Rate: info.Rate, TotalBytes: info.TotalBytes, Streamed: true}
	player := s.mgr.MsgPlayer()
	player.BeginStream(info.Rate, int(info.TotalBytes/2))
	var samples []int16 // decode scratch, reused per chunk
	started := false
	for {
		ch, err := sc.Recv()
		if err == io.EOF {
			pb.Done = ch.At
			player.FinishStream()
			if advance != nil && ch.At > 0 {
				advance(ch.At)
			}
			break
		}
		if err != nil {
			player.FinishStream() // play out what was delivered
			return pb, fmt.Errorf("workstation: voice stream at chunk %d: %w", pb.Chunks, err)
		}
		s.FetchTime += ch.Dev
		samples = wire.AppendPCMSamples(samples[:0], ch.Data)
		player.Feed(samples)
		if !started {
			pb.FirstAudio = ch.At
			if err := player.Play(0, 0, nil); err != nil {
				return pb, err
			}
			started = true
		}
		pb.Chunks++
		sc.Grant(len(ch.Data))
		if advance != nil {
			advance(ch.At)
		}
	}
	pb.Underruns = player.Underruns()
	return pb, nil
}

// playVoiceBatch is the pre-stream behaviour: one response carries the
// preview, playback starts only after the whole transfer.
func (s *Session) playVoiceBatch(ctx context.Context, id object.ID) (VoicePlayback, error) {
	vp, dur, err := s.be.VoicePreviewCtx(ctx, id)
	if err != nil {
		return VoicePlayback{}, err
	}
	s.FetchTime += dur
	player := s.mgr.MsgPlayer()
	player.Load(vp)
	if err := player.Play(0, 0, nil); err != nil {
		return VoicePlayback{}, err
	}
	return VoicePlayback{Rate: vp.Rate, TotalBytes: uint64(2 * len(vp.Samples))}, nil
}

// ProgressivePaint reports one progressive miniature delivery.
type ProgressivePaint struct {
	// Streamed is false when the peer fell back to the single-frame path.
	Streamed bool
	// Usable is the link time at which the coarse pass had arrived — the
	// browse cell shows a recognizable image from here on. Complete is the
	// link time of the end frame.
	Usable   time.Duration
	Complete time.Duration
	Passes   int
}

// MiniatureProgressiveCtx streams an object's miniature coarse-rows-first
// and repaints as passes land. onPass, if non-nil, is called after each
// pass with the accumulating bitmap (valid until the next call), whether
// it is usable yet, and the pass's link arrival time. The completed bitmap
// is returned.
//
// A peer without the stream feature falls back to the single-frame
// miniature fetch: onPass fires once with the complete bitmap.
func (s *Session) MiniatureProgressiveCtx(ctx context.Context, id object.ID, onPass func(bm *img.Bitmap, usable bool, at time.Duration)) (*img.Bitmap, ProgressivePaint, error) {
	info, sc, err := s.be.MiniatureStreamCtx(ctx, id, 0, miniatureStreamWindow)
	if err != nil {
		if wire.StreamFallback(err) {
			res, dur, ferr := s.be.MiniaturesCtx(ctx, []object.ID{id})
			s.FetchTime += dur
			if ferr != nil {
				return nil, ProgressivePaint{}, ferr
			}
			if len(res) == 0 || !res[0].OK {
				return nil, ProgressivePaint{}, &noMiniatureError{id: id}
			}
			if onPass != nil {
				onPass(res[0].Mini, true, 0)
			}
			return res[0].Mini, ProgressivePaint{Passes: 1}, nil
		}
		return nil, ProgressivePaint{}, err
	}
	defer sc.Close()
	pp := ProgressivePaint{Streamed: true}
	prog := img.NewProgressive(info.W, info.H)
	for {
		ch, err := sc.Recv()
		if err == io.EOF {
			pp.Complete = ch.At
			break
		}
		if err != nil {
			return nil, pp, fmt.Errorf("workstation: miniature stream at pass %d: %w", pp.Passes, err)
		}
		pass, ok := img.PassAtOffset(info.W, info.H, ch.Offset)
		if !ok {
			return nil, pp, fmt.Errorf("workstation: miniature chunk offset %d off pass boundary", ch.Offset)
		}
		if err := prog.Apply(pass, ch.Data); err != nil {
			return nil, pp, err
		}
		if prog.Usable() && pp.Usable == 0 {
			pp.Usable = ch.At
		}
		pp.Passes++
		sc.Grant(len(ch.Data))
		if onPass != nil {
			onPass(prog.Bitmap(), prog.Usable(), ch.At)
		}
	}
	if !prog.Complete() {
		return nil, pp, fmt.Errorf("workstation: miniature stream ended after %d passes, incomplete", pp.Passes)
	}
	return prog.Bitmap(), pp, nil
}
