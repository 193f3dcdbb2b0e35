// Ablation benchmarks for the design choices DESIGN.md calls out: the
// device timing models, the cache size, audio page snapping, the split of
// the descriptor from the composition, and scheduler behaviour across
// devices. These go beyond the paper's own (qualitative) evaluation and
// probe whether each mechanism earns its place.
package minos

import (
	"fmt"
	"testing"
	"time"

	"minos/internal/archiver"
	"minos/internal/demo"
	"minos/internal/descriptor"
	"minos/internal/disk"
	"minos/internal/figures"
	"minos/internal/loadgen"
	"minos/internal/server"
	"minos/internal/text"
	"minos/internal/voice"
)

// A-DEVICE: the same closed load (E-QUEUE, FCFS, no cache) against a
// server whose archive device runs the optical vs the magnetic timing
// model. The optical archiver must saturate earlier — §5's rationale for
// adding "one or more high performance magnetic disks" to the server.
func BenchmarkAblationDeviceKind(b *testing.B) {
	for _, kind := range []struct {
		name string
		geo  disk.Geometry
	}{
		{"optical", disk.OpticalGeometry(4096)},
		{"magnetic", disk.MagneticGeometry(4096)},
	} {
		b.Run(kind.name, func(b *testing.B) {
			list, err := demo.Objects(8)
			if err != nil {
				b.Fatal(err)
			}
			var st loadgen.QueueStats
			for i := 0; i < b.N; i++ {
				dev, err := disk.NewOptical(kind.name, kind.geo)
				if err != nil {
					b.Fatal(err)
				}
				srv := server.New(archiver.New(dev), server.WithCache(0))
				for _, e := range list {
					if _, err := srv.Publish(e.Obj); err != nil {
						b.Fatal(err)
					}
				}
				st = loadgen.RunQueue(srv, loadgen.QueueConfig{
					Clients: 8, RequestsEach: 15,
					ThinkTime: 20 * time.Millisecond,
					PieceLen:  8192, Seed: 7,
				})
			}
			b.ReportMetric(float64(st.Mean.Milliseconds()), "sim-mean-ms")
			b.ReportMetric(st.Utilization, "utilization")
		})
	}
}

// A-CACHESIZE: hit rate of the re-read browsing workload as the block
// cache shrinks.
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, blocks := range []int{0, 8, 64, 512} {
		b.Run(fmt.Sprintf("cache%d", blocks), func(b *testing.B) {
			corpus, err := demo.Build(1<<15, 8)
			if err != nil {
				b.Fatal(err)
			}
			// Rebuild the server with the ablated cache size over the
			// same archive.
			srv := server.New(corpus.Server.Archiver(), server.WithCache(blocks))
			ids := corpus.Server.IDs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.ResetStats()
				for j := 0; j < 20; j++ {
					for _, id := range ids[:4] {
						ext, _ := srv.Archiver().ExtentOf(id)
						srv.ReadPiece(ext.Start, 8192)
					}
				}
			}
			st := srv.Stats()
			if st.CacheHits+st.CacheMiss > 0 {
				b.ReportMetric(float64(st.CacheHits)/float64(st.CacheHits+st.CacheMiss), "hit-rate")
			} else {
				b.ReportMetric(0, "hit-rate")
			}
		})
	}
}

// A-SNAP: audio pages snapped to pauses vs exact constant-length pages.
// Snapping is the paper's "approximately constant time length" — the
// ablation measures how many page boundaries would split a word without it.
func BenchmarkAblationAudioPageSnap(b *testing.B) {
	markup := demo.FillerMarkup("voice", 220, 9)
	seg, err := text.Parse(markup)
	if err != nil {
		b.Fatal(err)
	}
	syn := voice.Synthesize(text.Flatten(seg), voice.DefaultSpeaker(), 2000)
	pauses := voice.DetectPauses(syn.Part, voice.DetectorConfig{})
	splitRate := func(pages []voice.AudioPage) float64 {
		splits := 0
		for _, pg := range pages[:len(pages)-1] {
			inSilence := false
			for _, p := range pauses {
				if pg.End > p.Offset && pg.End <= p.Offset+p.Length {
					inSilence = true
					break
				}
			}
			if !inSilence {
				splits++
			}
		}
		if len(pages) <= 1 {
			return 0
		}
		return float64(splits) / float64(len(pages)-1)
	}
	b.Run("snapped", func(b *testing.B) {
		var rate float64
		for i := 0; i < b.N; i++ {
			pages := voice.Paginate(syn.Part, 5*time.Second, pauses)
			rate = splitRate(pages)
		}
		b.ReportMetric(rate, "word-split-rate")
	})
	b.Run("exact", func(b *testing.B) {
		var rate float64
		for i := 0; i < b.N; i++ {
			pages := voice.Paginate(syn.Part, 5*time.Second, nil)
			rate = splitRate(pages)
		}
		b.ReportMetric(rate, "word-split-rate")
	})
}

// A-DESC: how large is the descriptor relative to the composition for each
// figure object — the §4 design keeps presentation structure (descriptor)
// separable from bulk data (composition) so that browsing metadata is cheap
// to fetch.
func BenchmarkAblationDescriptorOverhead(b *testing.B) {
	objs := map[string]func() ([]byte, []byte){
		"fig12": func() ([]byte, []byte) {
			d, c, _ := descriptor.Encode(figures.Fig12Object())
			return d, c
		},
		"fig34": func() ([]byte, []byte) {
			d, c, _ := descriptor.Encode(figures.Fig34Object())
			return d, c
		},
		"fig910": func() ([]byte, []byte) {
			d, c, _ := descriptor.Encode(figures.Fig910Object())
			return d, c
		},
	}
	for name, build := range objs {
		b.Run(name, func(b *testing.B) {
			var dBytes, cBytes int
			for i := 0; i < b.N; i++ {
				d, c := build()
				dBytes, cBytes = len(d), len(c)
			}
			b.ReportMetric(float64(dBytes), "descriptor-bytes")
			b.ReportMetric(float64(cBytes), "composition-bytes")
			b.ReportMetric(float64(dBytes)/float64(dBytes+cBytes), "descriptor-fraction")
		})
	}
}

// A-SCHED: all three schedulers under heavy load on the optical device.
func BenchmarkAblationSchedulers(b *testing.B) {
	for _, kind := range []loadgen.Discipline{loadgen.FCFS, loadgen.SSTF, loadgen.SCAN} {
		b.Run(kind.String(), func(b *testing.B) {
			var st loadgen.QueueStats
			for i := 0; i < b.N; i++ {
				corpus, err := demo.Build(1<<15, 16)
				if err != nil {
					b.Fatal(err)
				}
				st = loadgen.RunQueue(corpus.Server, loadgen.QueueConfig{
					Clients: 24, RequestsEach: 8,
					ThinkTime: 10 * time.Millisecond,
					PieceLen:  4096, Sched: kind, Seed: 7,
				})
			}
			b.ReportMetric(float64(st.Mean.Milliseconds()), "sim-mean-ms")
			b.ReportMetric(float64(st.P95.Milliseconds()), "sim-p95-ms")
		})
	}
}

// A-MARKDEPTH: the paper lets the author choose how deeply a voice object
// is manually edited ("in a certain object, only identification of chapters
// may be desirable; in another, chapters and sections and paragraphs", §2).
// This ablation measures the navigation residual — how far from a target
// utterance the nearest marker lands — as the editing depth varies.
func BenchmarkAblationMarkerDepth(b *testing.B) {
	markup := demo.FillerMarkup("presentation", 260, 13)
	seg, err := text.Parse(markup)
	if err != nil {
		b.Fatal(err)
	}
	stream := text.Flatten(seg)
	syn := voice.Synthesize(stream, voice.DefaultSpeaker(), 2000)
	depths := map[string]text.Unit{
		"chapters-only": text.UnitChapter,
		"paragraphs":    text.UnitParagraph,
		"sentences":     text.UnitSentence,
	}
	// Targets: every 10th word's offset.
	var targets []int
	for i := 5; i < len(syn.Marks); i += 10 {
		targets = append(targets, syn.Marks[i].Offset)
	}
	for name, depth := range depths {
		b.Run(name, func(b *testing.B) {
			markers := voice.MarkersFromMarks(syn.Marks, depth)
			part := &voice.Part{Rate: syn.Part.Rate, Samples: syn.Part.Samples, Markers: markers}
			var residual float64
			for i := 0; i < b.N; i++ {
				total := 0.0
				for _, tgt := range targets {
					// Nearest marker at or before the target.
					best := 0
					for _, mk := range part.Markers {
						if mk.Offset <= tgt && mk.Offset > best {
							best = mk.Offset
						}
					}
					total += float64(tgt-best) / float64(part.Rate)
				}
				residual = total / float64(len(targets))
			}
			b.ReportMetric(residual, "mean-residual-sec")
			b.ReportMetric(float64(len(markers)), "markers")
		})
	}
}
