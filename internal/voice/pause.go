package voice

import (
	"sort"
	"time"
)

// Pause is a detected silence in the voice part.
type Pause struct {
	Offset int // first sample of the silence
	Length int // in samples
	Long   bool
}

// Duration returns the pause length as a time value given the part rate.
func (p Pause) Duration(rate int) time.Duration {
	return time.Duration(p.Length) * time.Second / time.Duration(rate)
}

// DetectorConfig tunes pause detection. Zero values select defaults.
type DetectorConfig struct {
	// FrameMs is the analysis frame length in milliseconds (default 10).
	FrameMs int
	// SilenceIntensity is the mean-absolute-amplitude threshold below
	// which a frame counts as silent (default 200 — above the synth
	// noise floor, far below speech).
	SilenceIntensity float64
	// MinPauseMs is the shortest silence reported as a pause
	// (default 40 ms); shorter dips are intra-word artifacts.
	MinPauseMs int
	// Window is the number of neighbouring pauses sampled to decide the
	// local short/long split (default 24). Per the paper, the split "is
	// decided from the current context by sampling".
	Window int
	// FixedLongThreshold, when > 0, disables adaptive classification and
	// labels every pause of at least this duration as long. This is the
	// baseline the adaptation experiment compares against.
	FixedLongThreshold time.Duration
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.FrameMs <= 0 {
		c.FrameMs = 10
	}
	if c.SilenceIntensity <= 0 {
		c.SilenceIntensity = 200
	}
	if c.MinPauseMs <= 0 {
		c.MinPauseMs = 40
	}
	if c.Window <= 0 {
		c.Window = 24
	}
	return c
}

// DetectPauses scans the part and returns all pauses, classified short or
// long. Classification is adaptive unless cfg.FixedLongThreshold is set.
func DetectPauses(p *Part, cfg DetectorConfig) []Pause {
	cfg = cfg.withDefaults()
	frame := p.Rate * cfg.FrameMs / 1000
	if frame <= 0 {
		frame = 1
	}
	minFrames := cfg.MinPauseMs / cfg.FrameMs
	if minFrames < 1 {
		minFrames = 1
	}

	var pauses []Pause
	runStart, runFrames := -1, 0
	flush := func(endOff int) {
		if runStart >= 0 && runFrames >= minFrames {
			pauses = append(pauses, Pause{Offset: runStart, Length: endOff - runStart})
		}
		runStart, runFrames = -1, 0
	}
	for off := 0; off < len(p.Samples); off += frame {
		if p.Intensity(off, frame) < cfg.SilenceIntensity {
			if runStart < 0 {
				runStart = off
			}
			runFrames++
		} else {
			flush(off)
		}
	}
	flush(len(p.Samples))

	if cfg.FixedLongThreshold > 0 {
		for i := range pauses {
			pauses[i].Long = pauses[i].Duration(p.Rate) >= cfg.FixedLongThreshold
		}
		return pauses
	}
	classifyAdaptive(pauses, cfg.Window)
	return pauses
}

// classifyAdaptive labels each pause by sampling the durations of its
// neighbours and splitting them into two clusters with a 1-D 2-means; the
// pause is long if it falls in the upper cluster. When the local context is
// effectively unimodal (cluster separation < 2x) the pause is compared
// against twice the lower-cluster mean, which keeps behaviour sane in
// stretches with no paragraph breaks.
func classifyAdaptive(pauses []Pause, window int) {
	n := len(pauses)
	for i := range pauses {
		lo := i - window/2
		hi := lo + window
		if lo < 0 {
			lo, hi = 0, min(window, n)
		}
		if hi > n {
			hi = n
			lo = max(0, hi-window)
		}
		local := make([]int, 0, hi-lo)
		for _, q := range pauses[lo:hi] {
			local = append(local, q.Length)
		}
		split, separated := twoMeansSplit(local)
		if separated {
			pauses[i].Long = pauses[i].Length >= split
		} else {
			mean := 0
			for _, v := range local {
				mean += v
			}
			if len(local) > 0 {
				mean /= len(local)
			}
			pauses[i].Long = pauses[i].Length >= 2*mean && mean > 0
		}
	}
}

// twoMeansSplit runs 1-D 2-means on the values and returns the midpoint
// between the final cluster centres, plus whether the centres are separated
// by at least a factor of two (a bimodal context).
func twoMeansSplit(values []int) (split int, separated bool) {
	if len(values) < 2 {
		return 0, false
	}
	sorted := append([]int(nil), values...)
	sort.Ints(sorted)
	c1 := float64(sorted[0])
	c2 := float64(sorted[len(sorted)-1])
	if c1 == c2 {
		return 0, false
	}
	for iter := 0; iter < 16; iter++ {
		var s1, n1, s2, n2 float64
		for _, v := range sorted {
			f := float64(v)
			if absf(f-c1) <= absf(f-c2) {
				s1 += f
				n1++
			} else {
				s2 += f
				n2++
			}
		}
		if n1 == 0 || n2 == 0 {
			return 0, false
		}
		nc1, nc2 := s1/n1, s2/n2
		if nc1 == c1 && nc2 == c2 {
			break
		}
		c1, c2 = nc1, nc2
	}
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	return int((c1 + c2) / 2), c2 >= 2*c1
}

func absf(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// PausesBefore returns the offsets of up to n pauses of the requested kind
// (long or short) that end at or before sample position pos, most recent
// first. It implements the §2 rewind primitive: "the user may specify that
// the audio is replayed starting from a number of short or long pauses back
// from the current position." The returned offset is the end of the pause,
// i.e. where speech resumes.
func PausesBefore(pauses []Pause, pos int, long bool, n int) []int {
	var out []int
	for i := len(pauses) - 1; i >= 0 && len(out) < n; i-- {
		p := pauses[i]
		if p.Long != long {
			continue
		}
		if p.Offset+p.Length <= pos {
			out = append(out, p.Offset+p.Length)
		}
	}
	return out
}

// RewindTarget returns the sample offset at which to resume playback after
// "go back n short/long pauses" from pos. If fewer than n matching pauses
// precede pos the result is 0 (start of the part).
func RewindTarget(pauses []Pause, pos int, long bool, n int) int {
	if n <= 0 {
		return pos
	}
	backs := PausesBefore(pauses, pos, long, n)
	if len(backs) < n {
		return 0
	}
	return backs[n-1]
}
