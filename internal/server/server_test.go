package server

import (
	"strings"
	"testing"

	"minos/internal/archiver"
	"minos/internal/disk"
	img "minos/internal/image"
	"minos/internal/object"
)

func newServer(t testing.TB, blocks int, opts ...Option) *Server {
	t.Helper()
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(blocks))
	if err != nil {
		t.Fatal(err)
	}
	return New(archiver.New(dev), opts...)
}

func docObject(t testing.TB, id object.ID, body string) *object.Object {
	t.Helper()
	o, err := object.NewBuilder(id, "doc", object.Visual).Text(body).Build()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func imageObject(t testing.TB, id object.ID) *object.Object {
	t.Helper()
	im := img.New("map", 128, 128)
	im.Base = img.NewBitmap(128, 128)
	im.Base.Fill(img.Rect{X: 16, Y: 16, W: 96, H: 96}, true)
	o, err := object.NewBuilder(id, "map", object.Visual).
		Text(".title Map\nA city map with sites.\n").
		Image(im).Build()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestPublishAndLoad(t *testing.T) {
	s := newServer(t, 1024)
	if _, err := s.Publish(docObject(t, 1, "alpha beta gamma.\n")); err != nil {
		t.Fatal(err)
	}
	o, dur, err := s.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Stream()) != 3 {
		t.Fatalf("stream = %d words", len(o.Stream()))
	}
	if dur < 0 {
		t.Fatal("negative duration")
	}
}

func TestQueryThroughServer(t *testing.T) {
	s := newServer(t, 2048)
	s.Publish(docObject(t, 1, "the lung shadow is visible.\n"))
	s.Publish(docObject(t, 2, "the heart rhythm is regular.\n"))
	if got := s.Query("lung"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Query(lung) = %v", got)
	}
	if got := s.Query("the"); len(got) != 2 {
		t.Fatalf("Query(the) = %v", got)
	}
}

func TestMiniatures(t *testing.T) {
	s := newServer(t, 2048)
	s.Publish(imageObject(t, 1))
	s.Publish(docObject(t, 2, "pure text object.\n"))
	m1 := s.Miniature(1)
	if m1 == nil || m1.W > MiniatureSize+8 {
		t.Fatalf("image miniature = %+v", m1)
	}
	if m1.PopCount() == 0 {
		t.Fatal("image miniature blank")
	}
	m2 := s.Miniature(2)
	if m2 == nil || m2.PopCount() == 0 {
		t.Fatal("text miniature blank")
	}
	if s.Miniature(99) != nil {
		t.Fatal("phantom miniature")
	}
	// Miniatures are much smaller than the full object data.
	ext, _ := s.Archiver().ExtentOf(1)
	if uint64(m1.ByteSize()) >= ext.Length/4 {
		t.Fatalf("miniature %d bytes vs object %d", m1.ByteSize(), ext.Length)
	}
}

func TestAudioModeBadge(t *testing.T) {
	s := newServer(t, 2048)
	o, err := object.NewBuilder(3, "spoken", object.Audio).
		Text(".title Spoken\nSome words here.\n").Build()
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(o)
	m := s.Miniature(3)
	if m == nil || !m.Get(m.W-2, 1) {
		t.Fatal("audio badge missing")
	}
	if mode, ok := s.Mode(3); !ok || mode != object.Audio {
		t.Fatal("mode not recorded")
	}
}

func TestCacheMakesRereadsFree(t *testing.T) {
	s := newServer(t, 1024, WithCache(512))
	s.Publish(docObject(t, 1, strings.Repeat("words in the body. ", 50)+"\n"))
	ext, _ := s.Archiver().ExtentOf(1)
	_, cold, err := s.ReadPiece(ext.Start, ext.Length)
	if err != nil {
		t.Fatal(err)
	}
	if cold == 0 {
		t.Fatal("cold read cost nothing")
	}
	_, warm, err := s.ReadPiece(ext.Start, ext.Length)
	if err != nil {
		t.Fatal(err)
	}
	if warm != 0 {
		t.Fatalf("warm read cost %v", warm)
	}
	st := s.Stats()
	if st.CacheHits == 0 || st.CacheMiss == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoCacheAlwaysPays(t *testing.T) {
	s := newServer(t, 1024, WithCache(0))
	s.Publish(docObject(t, 1, "alpha beta gamma delta.\n"))
	ext, _ := s.Archiver().ExtentOf(1)
	_, t1, _ := s.ReadPiece(ext.Start, ext.Length)
	_, t2, _ := s.ReadPiece(ext.Start, ext.Length)
	if t1 == 0 || t2 == 0 {
		t.Fatal("uncached reads cost nothing")
	}
}

func TestBlockCacheLRU(t *testing.T) {
	c := NewBlockCache(2)
	c.Put(1, []byte{1})
	c.Put(2, []byte{2})
	if c.Get(1) == nil {
		t.Fatal("block 1 evicted early")
	}
	c.Put(3, []byte{3}) // evicts 2 (LRU)
	if c.Get(2) != nil {
		t.Fatal("LRU did not evict block 2")
	}
	if c.Get(1) == nil || c.Get(3) == nil {
		t.Fatal("wrong entries evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Re-put updates in place.
	c.Put(1, []byte{9})
	if got := c.Get(1); got[0] != 9 {
		t.Fatal("Put did not update")
	}
}

func TestDescriptorThroughCache(t *testing.T) {
	s := newServer(t, 1024)
	s.Publish(docObject(t, 1, "alpha beta.\n"))
	d, _, err := s.Descriptor(1)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != 1 || len(d.Parts) == 0 {
		t.Fatalf("descriptor = %+v", d)
	}
	if _, _, err := s.Descriptor(42); err == nil {
		t.Fatal("missing object served")
	}
}

func TestStatsAndReset(t *testing.T) {
	s := newServer(t, 1024)
	s.Publish(docObject(t, 1, "alpha.\n"))
	s.Load(1)
	st := s.Stats()
	if st.PieceReads == 0 || st.BytesOut == 0 {
		t.Fatalf("stats = %+v", st)
	}
	s.ResetStats()
	st = s.Stats()
	if st.PieceReads != 0 || st.BytesOut != 0 || st.CacheHits != 0 {
		t.Fatalf("reset stats = %+v", st)
	}
}
