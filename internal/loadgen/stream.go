package loadgen

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"minos/internal/archiver"
	"minos/internal/cluster"
	"minos/internal/core"
	"minos/internal/demo"
	"minos/internal/disk"
	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/server"
	"minos/internal/text"
	"minos/internal/vclock"
	"minos/internal/voice"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// E-STREAM: streaming delivery vs the batch path, measured on the simulated
// 10 Mbit/s link. Four legs, all deterministic:
//
//  1. Voice: a >=10 s spoken part is played through the workstation's
//     streaming session on a virtual clock. Time-to-first-audio (the first
//     chunk's modelled arrival) is compared against the batch path's
//     full-download time — the single frame a whole-part batch op would
//     have shipped. The play-out runs on the same clock, so the underrun
//     count is a bit-exact measurement.
//  2. Progressive browse screen: every miniature of a result screen is
//     streamed coarse-pass-first. The screen is "usable" when each cell has
//     its coarse pass — the credit window lets a client solicit exactly the
//     coarse passes first — and that time is compared against the batch
//     miniature call delivering every cell complete.
//  3. Failover: the same voice stream against a primary/replica pair, with
//     the primary killed a third of the way in. The stream must resume on
//     the replica at the delivered offset and the received bytes must equal
//     the archive bit for bit.
//  4. Alloc guard: the marginal heap cost of one streamed voice chunk on a
//     warm cache, measured as the allocation delta between a long and a
//     short stream over the same part.
//
// Frame arithmetic mirrors the mux layout: 8 bytes of frame+correlation
// header, 13 bytes of response/stream header, 8 bytes of chunk offset.
const (
	muxHdrBytes    = 8  // [length u32][corrid u32]
	respHdrBytes   = 13 // [status u8][dev u64][plen u32]
	openReqBytes   = 21 // [op u8][id u64][from u64][window u32]
	voiceMetaBytes = 12 // [rate u32][total u64]
	miniMetaBytes  = 20 // [w u32][h u32][passes u32][total u64]
	endFrameBytes  = muxHdrBytes + respHdrBytes + 1
)

// Every E-STREAM archive is a 1<<14-block optical device, and the spoken
// part is 8 kHz PCM; both legs ride ethernetLink.
const (
	streamBlocks = 1 << 14
	streamRate   = 8000
)

// StreamConfig parameterizes one E-STREAM run.
type StreamConfig struct {
	// VoiceSeconds is the minimum spoken-part duration (default 10).
	VoiceSeconds int
	// ScreenCells is the number of miniatures on the progressive browse
	// screen (default 96 — a paging browse screen; per-stream framing and
	// the link round-trip amortize across cells, which is where the
	// coarse-pass-first win lives).
	ScreenCells int
	// Seed drives the deterministic corpus.
	Seed int
	// AllocRounds is the sample count for the alloc guard (default 10).
	AllocRounds int
}

// StreamResult is the measured outcome. Identical StreamConfigs produce
// identical results (the alloc leg reports a marginal rate that is exactly
// zero when the steady state allocates nothing).
type StreamResult struct {
	// Voice leg.
	VoiceSeconds      float64       `json:"voice_seconds"`
	VoiceBytes        uint64        `json:"voice_bytes"`
	VoiceChunks       int           `json:"voice_chunks"`
	TTFA              time.Duration `json:"ttfa"`
	VoiceStreamDone   time.Duration `json:"voice_stream_done"`
	VoiceFullDownload time.Duration `json:"voice_full_download"`
	TTFASpeedup       float64       `json:"ttfa_speedup"`
	Underruns         int           `json:"underruns"`

	// Progressive browse screen leg.
	ScreenCells      int           `json:"screen_cells"`
	CoarseFrameBytes int64         `json:"coarse_frame_bytes"`
	FullStreamBytes  int64         `json:"full_stream_bytes"`
	BatchFrameBytes  int64         `json:"batch_frame_bytes"`
	ScreenUsable     time.Duration `json:"screen_usable"`
	ScreenFull       time.Duration `json:"screen_full"`
	UsableRatio      float64       `json:"usable_ratio"`

	// Failover leg.
	FailoverDelivered uint64 `json:"failover_delivered"`
	FailoverResumes   int64  `json:"failover_resumes"`
	FailoverOK        bool   `json:"failover_ok"`

	// Alloc guard.
	AllocsPerChunk float64 `json:"allocs_per_chunk"`
}

func (c *StreamConfig) defaults() {
	if c.VoiceSeconds == 0 {
		c.VoiceSeconds = 10
	}
	if c.ScreenCells == 0 {
		c.ScreenCells = 96
	}
	if c.AllocRounds == 0 {
		c.AllocRounds = 10
	}
}

// spokenPart synthesizes a deterministic spoken part of at least minSeconds,
// doubling the source word count until it is long enough.
func spokenPart(minSeconds, seed int) (*voice.Part, error) {
	for words := 400; ; words *= 2 {
		seg, err := text.Parse(demo.FillerMarkup("voice", words, seed))
		if err != nil {
			return nil, err
		}
		syn := voice.Synthesize(text.Flatten(seg), voice.DefaultSpeaker(), streamRate)
		if len(syn.Part.Samples) >= minSeconds*streamRate {
			return syn.Part, nil
		}
		if words > 1<<20 {
			return nil, fmt.Errorf("loadgen: cannot synthesize %d s of speech", minSeconds)
		}
	}
}

// voiceID names the spoken object in every E-STREAM archive.
const voiceID = object.ID(4242)

// publishSpoken archives the spoken part on srv as object voiceID.
func publishSpoken(srv *server.Server, part *voice.Part) error {
	o, err := object.NewBuilder(voiceID, "spoken notes", object.Audio).VoicePart(part).Build()
	if err != nil {
		return err
	}
	_, err = srv.Publish(o)
	return err
}

// streamCorpus builds the experiment archive: the spoken object plus
// ScreenCells image objects whose miniatures fill the browse screen.
func streamCorpus(cfg StreamConfig, part *voice.Part) (*server.Server, []object.ID, error) {
	srv, err := demo.NewServer("stream0", streamBlocks)
	if err != nil {
		return nil, nil, err
	}
	if err := publishSpoken(srv, part); err != nil {
		return nil, nil, err
	}
	var minis []object.ID
	for i := 0; i < cfg.ScreenCells; i++ {
		id := object.ID(5000 + i)
		im := img.New(fmt.Sprintf("cell%d", i), 256, 256)
		im.Base = img.NewBitmap(256, 256)
		// A deterministic per-cell pattern (so every miniature differs and
		// none is blank).
		x := uint32(cfg.Seed)*2654435761 + uint32(i)*40503 + 11
		for r := 0; r < 6; r++ {
			x = x*1664525 + 1013904223
			rx, ry := int(x>>8)%200, int(x>>20)%200
			im.Base.Fill(img.Rect{X: rx, Y: ry, W: 48, H: 32}, true)
		}
		mo, err := object.NewBuilder(id, fmt.Sprintf("figure %d", i), object.Visual).
			Text(fmt.Sprintf(".title Figure %d\na browse screen cell image.\n", i)).
			Image(im).Build()
		if err != nil {
			return nil, nil, err
		}
		if _, err := srv.Publish(mo); err != nil {
			return nil, nil, err
		}
		minis = append(minis, id)
	}
	return srv, minis, nil
}

// RunStream runs the E-STREAM experiment and reports the measurements.
func RunStream(cfg StreamConfig) (StreamResult, error) {
	cfg.defaults()
	var r StreamResult

	// One synthesis serves all four legs.
	part, err := spokenPart(cfg.VoiceSeconds, cfg.Seed)
	if err != nil {
		return r, err
	}
	srv, minis, err := streamCorpus(cfg, part)
	if err != nil {
		return r, err
	}

	// --- Voice leg: play-while-fetching on the virtual clock. ---
	clock := vclock.New()
	sess := workstation.New(wire.NewClient(wire.EthernetLink(&wire.Handler{Srv: srv})), core.Config{Screen: screen.New(240, 140), Clock: clock})
	pb, err := sess.PlayVoiceStreamCtx(context.Background(), voiceID,
		func(at time.Duration) { clock.AdvanceTo(at) })
	if err != nil {
		return r, fmt.Errorf("loadgen: voice stream: %w", err)
	}
	if !pb.Streamed {
		return r, fmt.Errorf("loadgen: voice leg fell back to the batch path")
	}
	clock.Run(24 * time.Hour) // play the part out
	r.VoiceSeconds = float64(pb.TotalBytes/2) / float64(pb.Rate)
	r.VoiceBytes = pb.TotalBytes
	r.VoiceChunks = pb.Chunks
	r.TTFA = pb.FirstAudio
	r.VoiceStreamDone = pb.Done
	r.Underruns = pb.Underruns
	// The batch path ships the whole part as one frame; playback cannot
	// start before its last byte lands.
	r.VoiceFullDownload = ethernetLink.transfer(openReqBytes + respHdrBytes + voiceMetaBytes + int(pb.TotalBytes))
	if r.TTFA > 0 {
		r.TTFASpeedup = float64(r.VoiceFullDownload) / float64(r.TTFA)
	}

	// --- Progressive browse screen leg. ---
	// Stream every cell's miniature through the real serving path, counting
	// frame bytes as the mux lays them out. The coarse phase is what a
	// progressive browser solicits first (open each stream with a
	// coarse-pass window); the batch baseline is one Miniatures call
	// returning every cell complete.
	wc := wire.NewClient(wire.EthernetLink(&wire.Handler{Srv: srv}))
	r.ScreenCells = len(minis)
	for _, id := range minis {
		info, sc, err := wc.MiniatureStreamCtx(context.Background(), id, 0, 1<<20)
		if err != nil {
			return r, fmt.Errorf("loadgen: miniature stream %d: %w", id, err)
		}
		hdr := int64(muxHdrBytes + respHdrBytes + miniMetaBytes)
		r.CoarseFrameBytes += hdr
		r.FullStreamBytes += hdr
		pass := 0
		for {
			ch, rerr := sc.Recv()
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				sc.Close()
				return r, fmt.Errorf("loadgen: miniature stream %d: %w", id, rerr)
			}
			frame := int64(muxHdrBytes + respHdrBytes + 8 + len(ch.Data))
			if pass == 0 {
				r.CoarseFrameBytes += frame
			}
			r.FullStreamBytes += frame
			pass++
			sc.Grant(len(ch.Data))
		}
		sc.Close()
		if pass != info.Passes {
			return r, fmt.Errorf("loadgen: miniature %d delivered %d passes, want %d", id, pass, info.Passes)
		}
		r.FullStreamBytes += endFrameBytes
		payload, _, ok := srv.MiniatureEncoded(id)
		if !ok {
			return r, fmt.Errorf("loadgen: no encoded miniature for %d", id)
		}
		r.BatchFrameBytes += int64(len(payload)) + 6
	}
	openCost := int64(len(minis) * (muxHdrBytes + openReqBytes))
	r.ScreenUsable = ethernetLink.transfer(int(openCost + r.CoarseFrameBytes))
	batchReq := muxHdrBytes + 3 + 8*len(minis)
	r.ScreenFull = ethernetLink.transfer(batchReq + respHdrBytes + int(r.BatchFrameBytes))
	if r.ScreenFull > 0 {
		r.UsableRatio = float64(r.ScreenUsable) / float64(r.ScreenFull)
	}

	// --- Failover leg: mid-stream primary kill, resume on the replica. ---
	ok, delivered, resumes, err := runStreamFailover(part)
	if err != nil {
		return r, err
	}
	r.FailoverOK, r.FailoverDelivered, r.FailoverResumes = ok, delivered, resumes

	// --- Alloc guard: marginal allocations per streamed chunk. ---
	r.AllocsPerChunk, err = streamAllocsPerChunk(part, cfg.AllocRounds)
	if err != nil {
		return r, err
	}
	return r, nil
}

// killableTransport is a LocalTransport with a kill switch: once failed,
// every exchange — and every Recv on an already-open stream — errors like a
// reset TCP connection.
type killableTransport struct {
	inner  *wire.LocalTransport
	failed *atomic.Bool
}

func (t *killableTransport) RoundTrip(req []byte) ([]byte, error) {
	if t.failed.Load() {
		return nil, syscall.ECONNRESET
	}
	return t.inner.RoundTrip(req)
}

func (t *killableTransport) Close() error { return t.inner.Close() }

func (t *killableTransport) OpenStream(ctx context.Context, req []byte) ([]byte, time.Duration, wire.StreamConn, error) {
	if t.failed.Load() {
		return nil, 0, nil, syscall.ECONNRESET
	}
	meta, dev, sc, err := t.inner.OpenStream(ctx, req)
	if err != nil {
		return nil, 0, nil, err
	}
	return meta, dev, &killableStream{inner: sc, failed: t.failed}, nil
}

type killableStream struct {
	inner  wire.StreamConn
	failed *atomic.Bool
}

func (s *killableStream) Recv() (wire.StreamChunk, error) {
	if s.failed.Load() {
		return wire.StreamChunk{}, syscall.ECONNRESET
	}
	return s.inner.Recv()
}

func (s *killableStream) Grant(n int)  { s.inner.Grant(n) }
func (s *killableStream) Close() error { return s.inner.Close() }

// runStreamFailover streams the spoken part off a primary/replica pair and
// kills the primary a third of the way in. Reports whether the delivered
// bytes equal the archive exactly, how many bytes arrived, and how many
// mid-stream resumes the router performed.
func runStreamFailover(part *voice.Part) (ok bool, delivered uint64, resumes int64, err error) {
	endpoints := map[string]*struct {
		h      *wire.Handler
		failed atomic.Bool
	}{}
	for _, name := range []string{"stream-prime", "stream-prime-r"} {
		srv, serr := demo.NewServer(name, streamBlocks)
		if serr != nil {
			return false, 0, 0, serr
		}
		if perr := publishSpoken(srv, part); perr != nil {
			return false, 0, 0, perr
		}
		endpoints[name] = &struct {
			h      *wire.Handler
			failed atomic.Bool
		}{h: &wire.Handler{Srv: srv}}
	}
	m := &cluster.Map{
		Epoch:  1,
		Vnodes: cluster.DefaultVnodes,
		Shards: []cluster.Shard{{ID: 0, Primary: "stream-prime", Replicas: []string{"stream-prime-r"}}},
	}
	enc := m.Encode()
	for _, ep := range endpoints {
		ep.h.Srv.SetClusterMap(m.Epoch, enc)
	}
	dial := func(endpoint string) (wire.Transport, error) {
		ep, found := endpoints[endpoint]
		if !found {
			return nil, fmt.Errorf("loadgen: unknown endpoint %q", endpoint)
		}
		return &killableTransport{
			inner:  wire.EthernetLink(ep.h),
			failed: &ep.failed,
		}, nil
	}
	c, err := cluster.Dial("stream-prime", dial)
	if err != nil {
		return false, 0, 0, err
	}
	defer c.Close()
	c.SetRetryPolicy(wire.RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond})

	prime := endpoints["stream-prime"].h.Srv
	pcm, _, err := prime.VoicePCMInfoAs(0, voiceID)
	if err != nil {
		return false, 0, 0, err
	}
	want, _, err := prime.ReadPieceAs(0, pcm.Off, pcm.Bytes)
	if err != nil {
		return false, 0, 0, err
	}
	info, sc, err := c.VoiceStreamCtx(context.Background(), voiceID, 0, 64<<10)
	if err != nil {
		return false, 0, 0, err
	}
	defer sc.Close()
	got := make([]byte, 0, info.TotalBytes)
	var next uint64
	killed := false
	for {
		ch, rerr := sc.Recv()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return false, uint64(len(got)), c.StreamResumes(), fmt.Errorf("loadgen: failover stream: %w", rerr)
		}
		if ch.Offset != next {
			return false, uint64(len(got)), c.StreamResumes(),
				fmt.Errorf("loadgen: stream gap at %d (got offset %d)", next, ch.Offset)
		}
		got = append(got, ch.Data...)
		next = ch.Offset + uint64(len(ch.Data))
		sc.Grant(len(ch.Data))
		if !killed && next >= info.TotalBytes/3 {
			endpoints["stream-prime"].failed.Store(true)
			killed = true
		}
	}
	delivered = uint64(len(got))
	resumes = c.StreamResumes()
	ok = killed && delivered == info.TotalBytes && string(got) == string(want) && resumes >= 1
	return ok, delivered, resumes, nil
}

// nullSink drops a producer's stream; the alloc guard measures the serve
// path itself.
type nullSink struct{}

func (nullSink) Grant(uint32)                             {}
func (nullSink) Header([]byte, time.Duration) error       { return nil }
func (nullSink) Data(uint64, []byte, time.Duration) error { return nil }

// streamAllocsPerChunk measures the marginal heap allocations of one
// streamed voice chunk on a warm block cache: allocations of a full-part
// stream minus those of a one-chunk stream, divided by the chunk-count
// delta. Per-stream overhead (admission, descriptor parse, header
// metadata) cancels out. Each side is a testing.AllocsPerRun average —
// pinned to one P and truncated to whole allocations, so a stray runtime
// allocation in the window cannot leak into the rate.
func streamAllocsPerChunk(part *voice.Part, rounds int) (float64, error) {
	dev, err := disk.NewOptical("stream-alloc", disk.OpticalGeometry(streamBlocks))
	if err != nil {
		return 0, err
	}
	// The cache must hold the whole PCM region: the guard is about the
	// steady-state serve path, not cache-miss device reads.
	srv := server.New(archiver.New(dev), server.WithCache(streamBlocks))
	if err := publishSpoken(srv, part); err != nil {
		return 0, err
	}
	h := &wire.Handler{Srv: srv}
	info, _, err := srv.VoicePCMInfoAs(0, voiceID)
	if err != nil {
		return 0, err
	}
	chunks := (info.Bytes + wire.StreamChunkBytes - 1) / wire.StreamChunkBytes
	if chunks <= 1 {
		return 0, fmt.Errorf("loadgen: voice part too short for the alloc guard")
	}
	var serr error
	allocs := func(from uint64) float64 {
		req := encodeVoiceStreamOpen(voiceID, from)
		// AllocsPerRun's own warm-up call fills the cache and buffer pools.
		return testing.AllocsPerRun(rounds, func() {
			if e := h.ServeStreamAs(0, req, nullSink{}); e != nil {
				serr = e
			}
		})
	}
	full := allocs(0)
	short := allocs((chunks - 1) * wire.StreamChunkBytes)
	if serr != nil {
		return 0, serr
	}
	return max(full-short, 0) / float64(chunks-1), nil
}

// encodeVoiceStreamOpen mirrors the wire open-request layout (the wire
// package keeps its codec private; the 21-byte shape is part of the
// protocol contract documented in DESIGN.md §10).
func encodeVoiceStreamOpen(id object.ID, from uint64) []byte {
	req := append(make([]byte, 0, openReqBytes), wire.OpVoiceStream)
	req = binary.BigEndian.AppendUint64(req, uint64(id))
	req = binary.BigEndian.AppendUint64(req, from)
	return binary.BigEndian.AppendUint32(req, 1<<20) // window
}
