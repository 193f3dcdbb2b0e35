package server

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minos/internal/descriptor"
	img "minos/internal/image"
	"minos/internal/object"
)

// raceIters scales the stress loops down under -short (the Makefile's race
// target runs short mode so `make check` stays quick).
func raceIters(t *testing.T, full int) int {
	t.Helper()
	if testing.Short() {
		return full / 4
	}
	return full
}

// TestConcurrentReadsMatchSerial hammers one server from many goroutines
// with overlapping Piece/Miniature/View/Query/Stats requests and asserts
// every response is byte-identical to the serial baseline. Run it under
// `go test -race` to prove the handler paths are data-race free.
func TestConcurrentReadsMatchSerial(t *testing.T) {
	s := newServer(t, 4096)
	if _, err := s.Publish(docObject(t, 1, "the lung shadow is visible here today.\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(docObject(t, 2, "the heart rhythm is regular and steady.\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(imageObject(t, 3)); err != nil {
		t.Fatal(err)
	}

	// Serial baselines, captured before any concurrency.
	type baseline struct {
		piece []byte
		view  *img.Bitmap
		query []object.ID
	}
	base := map[object.ID]*baseline{}
	viewRect := img.Rect{X: 8, Y: 8, W: 48, H: 40}
	for _, id := range s.IDs() {
		ext, err := s.Archiver().ExtentOf(id)
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := s.ReadPiece(ext.Start, ext.Length)
		if err != nil {
			t.Fatal(err)
		}
		base[id] = &baseline{piece: data}
	}
	v, _, err := s.ImageView(3, "map", viewRect)
	if err != nil {
		t.Fatal(err)
	}
	base[3].view = v
	base[3].query = s.Query("the")

	const workers = 32
	iters := raceIters(t, 60)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := s.IDs()
			for i := 0; i < iters; i++ {
				id := ids[(w+i)%3] // the three baseline objects
				ext, err := s.Archiver().ExtentOf(id)
				if err != nil {
					errc <- err
					return
				}
				data, _, err := s.ReadPiece(ext.Start, ext.Length)
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(data, base[id].piece) {
					errc <- fmt.Errorf("worker %d: piece of object %d diverged from serial read", w, id)
					return
				}
				if m := s.Miniature(id); m == nil || m.PopCount() == 0 {
					errc <- fmt.Errorf("worker %d: bad miniature for %d", w, id)
					return
				}
				if _, ok := s.Mode(id); !ok {
					errc <- fmt.Errorf("worker %d: mode of %d missing", w, id)
					return
				}
				switch i % 3 {
				case 0:
					got, _, err := s.ImageView(3, "map", viewRect)
					if err != nil {
						errc <- err
						return
					}
					if !bitmapsEqual(got, base[3].view) {
						errc <- fmt.Errorf("worker %d: view diverged from serial extract", w)
						return
					}
				case 1:
					got := s.Query("the")
					if len(got) < len(base[3].query) {
						errc <- fmt.Errorf("worker %d: Query(the) = %v, want at least %v", w, got, base[3].query)
						return
					}
				case 2:
					st := s.Stats()
					if st.PieceReads <= 0 {
						errc <- fmt.Errorf("worker %d: stats went backwards: %+v", w, st)
						return
					}
				}
			}
		}(w)
	}
	// One writer publishes fresh objects while the readers run: Adopt,
	// Query and Miniature must not race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4+1; i++ {
			id := object.ID(100 + i)
			if _, err := s.Publish(docObject(t, id, "freshly published words arrive.\n")); err != nil {
				errc <- err
				return
			}
			if s.Miniature(id) == nil {
				errc <- fmt.Errorf("published object %d has no miniature", id)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.PieceReads == 0 || st.CacheHits == 0 {
		t.Fatalf("final stats = %+v", st)
	}
}

// TestConcurrentMiniatureEncodedChurn hammers the encoded-frame cache from
// many readers while a writer re-adopts the same objects, invalidating the
// cache on every pass. Re-adoption rebuilds a byte-identical miniature, so
// every reader must see exactly the serial baseline bytes — a recycled or
// half-installed buffer would diverge. Run under -race to prove the
// record swap and its atomic encoded frame.
func TestConcurrentMiniatureEncodedChurn(t *testing.T) {
	s := newServer(t, 4096)
	objs := []*object.Object{
		docObject(t, 1, "the lung shadow is visible here today.\n"),
		imageObject(t, 3),
	}
	for _, o := range objs {
		if _, err := s.Publish(o); err != nil {
			t.Fatal(err)
		}
	}
	base := map[object.ID][]byte{}
	for _, o := range objs {
		payload, _, ok := s.MiniatureEncoded(o.ID)
		if !ok || len(payload) == 0 {
			t.Fatalf("no encoded miniature for %d", o.ID)
		}
		base[o.ID] = append([]byte(nil), payload...)
	}

	const readers = 16
	iters := raceIters(t, 200)
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				o := objs[(w+i)%len(objs)]
				payload, _, ok := s.MiniatureEncoded(o.ID)
				if !ok {
					errc <- fmt.Errorf("reader %d: miniature of %d vanished", w, o.ID)
					return
				}
				if !bytes.Equal(payload, base[o.ID]) {
					errc <- fmt.Errorf("reader %d: encoded miniature of %d diverged from serial baseline", w, o.ID)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4+1; i++ {
			s.Adopt(objs[i%len(objs)]) // invalidates the encoded cache
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.EncodedHits == 0 || st.EncodedMiss == 0 {
		t.Fatalf("churn saw hits=%d miss=%d; want both nonzero", st.EncodedHits, st.EncodedMiss)
	}
}

// TestMiniatureEncodedNeverMixesVersions re-publishes one id with two
// different miniatures (and modes) from two writers at once, so swaps land
// arbitrarily close together, while readers keep encoders racing them. A
// reader may see either version, but always whole: the bytes of the mode it
// is told. An encoder that looked the superseded record up before a swap
// fills that orphan, never the live record.
func TestMiniatureEncodedNeverMixesVersions(t *testing.T) {
	s := newServer(t, 4096)
	versions := []*object.Object{
		docObject(t, 1, "the lung shadow is visible here today.\n"),
		imageObject(t, 1),
	}
	versions[1].Mode = object.Audio // Visual = 0 = the doc, Audio = 1 = the map
	var want [2][]byte
	for v, o := range versions {
		s.Adopt(o)
		payload, err := descriptor.EncodePart(descriptor.PartBitmap, s.Miniature(1))
		if err != nil {
			t.Fatal(err)
		}
		want[v] = payload
	}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("the two versions encode alike; the test would prove nothing")
	}

	const readers = 8
	stop := make(chan struct{})
	var readersWG, writersWG sync.WaitGroup
	errc := make(chan error, readers)
	for w := 0; w < readers; w++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				payload, mode, ok := s.MiniatureEncoded(1)
				if !ok || mode > object.Audio || !bytes.Equal(payload, want[mode]) {
					errc <- fmt.Errorf("reader saw ok=%v mode=%v with the other version's bytes", ok, mode)
					return
				}
			}
		}()
	}
	iters := raceIters(t, 400)
	for v := range versions {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < iters; i++ {
				s.Adopt(versions[v])
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Quiescent: the last swap won, and what is served is that version.
	payload, mode, ok := s.MiniatureEncoded(1)
	if !ok || !bytes.Equal(payload, want[mode]) {
		t.Fatalf("settled on ok=%v mode=%v with the other version's bytes", ok, mode)
	}
}

func bitmapsEqual(a, b *img.Bitmap) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			if a.Get(x, y) != b.Get(x, y) {
				return false
			}
		}
	}
	return true
}

// TestImageViewSingleFlight verifies that N concurrent first viewers of
// the same image drive exactly one rasterization: the device read count
// grows by one image fetch, not N.
func TestImageViewSingleFlight(t *testing.T) {
	s := newServer(t, 4096)
	if _, err := s.Publish(imageObject(t, 1)); err != nil {
		t.Fatal(err)
	}
	ext, err := s.Archiver().ExtentOf(1)
	if err != nil {
		t.Fatal(err)
	}
	maxBlocks := int64(ext.Length/2048 + 2) // whole object + header slack

	dev := s.Archiver().Device()
	reads0 := dev.Stats().Reads
	const viewers = 16
	var wg sync.WaitGroup
	errc := make(chan error, viewers)
	for i := 0; i < viewers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := s.ImageView(1, "map", img.Rect{X: 0, Y: 0, W: 64, H: 64})
			if err != nil {
				errc <- err
				return
			}
			if v.W != 64 || v.H != 64 {
				errc <- fmt.Errorf("view dims %dx%d", v.W, v.H)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if delta := dev.Stats().Reads - reads0; delta > maxBlocks {
		t.Fatalf("%d viewers drove %d device reads (single-flight should need at most %d)", viewers, delta, maxBlocks)
	}

	// Error views are not cached: a missing image fails for everyone and
	// keeps failing consistently.
	if _, _, err := s.ImageView(1, "ghost", img.Rect{}); err == nil {
		t.Fatal("view of missing image accepted")
	}
	if _, _, err := s.ImageView(1, "ghost", img.Rect{}); err == nil {
		t.Fatal("second view of missing image accepted")
	}
}

// TestConcurrentPublish races multiple publishers; the WORM directory
// must stay consistent and every object servable afterwards.
func TestConcurrentPublish(t *testing.T) {
	s := newServer(t, 8192)
	const publishers = 8
	iters := raceIters(t, 8)
	var wg sync.WaitGroup
	errc := make(chan error, publishers)
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := object.ID(1 + p*100 + i)
				if _, err := s.Publish(docObject(t, id, fmt.Sprintf("object %d body words.\n", id))); err != nil {
					errc <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	ids := s.IDs()
	if len(ids) != publishers*iters {
		t.Fatalf("archived %d objects, want %d", len(ids), publishers*iters)
	}
	for _, id := range ids {
		o, _, err := s.Load(id)
		if err != nil {
			t.Fatalf("load %d after concurrent publish: %v", id, err)
		}
		if len(o.Stream()) == 0 {
			t.Fatalf("object %d lost its text", id)
		}
	}
}

// TestConcurrentWarmHits is the §5 N-reader check: with a warmed hot set,
// overlapping piece reads from many goroutines are pure cache hits — no
// errors, no device time, and nothing ever queues on the seek semaphore.
func TestConcurrentWarmHits(t *testing.T) {
	s := newServer(t, 8192)
	for i := 1; i <= 6; i++ {
		if _, err := s.Publish(docObject(t, object.ID(i), "warm hot set object body with several words inside.\n")); err != nil {
			t.Fatal(err)
		}
	}
	// The hot set is the first four objects; warm every block of it.
	type extent struct{ start, length uint64 }
	var hot []extent
	for _, id := range s.IDs()[:4] {
		e, err := s.Archiver().ExtentOf(id)
		if err != nil {
			t.Fatal(err)
		}
		hot = append(hot, extent{e.Start, e.Length})
		s.ReadPiece(e.Start, e.Length)
	}

	const readers, pieceLen = 8, 1024
	iters := raceIters(t, 200)
	var (
		wg      sync.WaitGroup
		errs    atomic.Int64
		devTime atomic.Int64
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e := hot[(r+i)%len(hot)]
				length := min(uint64(pieceLen), e.length)
				off := e.start + uint64(i*37)%(e.length-length+1)
				_, dt, err := s.ReadPiece(off, length)
				if err != nil {
					errs.Add(1)
					continue
				}
				devTime.Add(int64(dt))
			}
		}(r)
	}
	wg.Wait()
	if n := errs.Load(); n != 0 {
		t.Fatalf("%d reads failed", n)
	}
	if dt := time.Duration(devTime.Load()); dt != 0 {
		t.Fatalf("warmed hot-set run paid device time %v (cache should absorb it)", dt)
	}
	if st := s.Stats(); st.DeviceWaits != 0 {
		t.Fatalf("cache hits queued on the device semaphore %d times", st.DeviceWaits)
	}
}
