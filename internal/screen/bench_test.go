package screen

import (
	"testing"

	img "minos/internal/image"
)

func benchPage(s *Screen) *img.Bitmap {
	p := img.NewBitmap(s.ContentWidth(), s.H)
	for i := 0; i < 400; i++ {
		p.Set((i*13)%p.W, (i*29)%p.H, true)
	}
	return p
}

func BenchmarkShowPageAndRender(b *testing.B) {
	s := New(512, 342)
	s.SetTitle("BENCH")
	s.SetMenu([]string{"NEXT PAGE", "PREV PAGE", "FIND PATTERN"})
	p := benchPage(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ShowPage(p)
		s.Render()
	}
}

// BenchmarkScreenRender is the gateway's per-view composition at its
// default geometry: content Or, separator, title and menu text.
func BenchmarkScreenRender(b *testing.B) {
	s := New(240, 140)
	s.SetTitle("BENCH")
	s.SetMenu([]string{"NEXT PAGE", "PREV PAGE", "FIND PATTERN"})
	s.ShowPage(benchPage(s))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Render().Release()
	}
}

func BenchmarkSuperimpose(b *testing.B) {
	s := New(512, 342)
	p := benchPage(s)
	s.ShowPage(p)
	tr := benchPage(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Superimpose(tr)
	}
}

func BenchmarkOverwrite(b *testing.B) {
	s := New(512, 342)
	s.ShowPage(benchPage(s))
	src := img.NewBitmap(s.ContentWidth(), s.H)
	mask := img.NewBitmap(s.ContentWidth(), s.H)
	mask.Fill(img.Rect{X: 50, Y: 50, W: 100, H: 80}, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Overwrite(src, mask)
	}
}
