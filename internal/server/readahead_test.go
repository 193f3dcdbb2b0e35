package server

import (
	"testing"
	"time"

	"minos/internal/archiver"
	"minos/internal/disk"
)

// waitReadAhead polls until the background sweep has landed at least want
// blocks (the sweep runs off the request path, so the test must wait for
// it rather than assume it finished).
func waitReadAhead(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().ReadAheadBlocks >= want && !s.ra.Sweeping() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("read-ahead landed %d blocks, want >= %d", s.Stats().ReadAheadBlocks, want)
}

func TestReadAheadWarmsSequentialBlocks(t *testing.T) {
	const depth = 4
	s := newServer(t, 64, WithCache(16))
	s.SetReadAhead(depth)
	bs := uint64(s.Archiver().Device().BlockSize())

	// A cache-miss read of block 0 should pull blocks 1..depth into the
	// cache in the background.
	if _, dur, err := s.ReadPiece(0, bs); err != nil {
		t.Fatal(err)
	} else if dur == 0 {
		t.Fatal("cold read cost nothing")
	}
	waitReadAhead(t, s, depth)

	// The sequentially-next reads are now warm: zero device time, cache
	// hits, no further device traffic.
	before := s.Stats()
	for b := uint64(1); b <= depth; b++ {
		_, dur, err := s.ReadPiece(b*bs, bs)
		if err != nil {
			t.Fatal(err)
		}
		if dur != 0 {
			t.Fatalf("block %d cost %v despite read-ahead", b, dur)
		}
	}
	after := s.Stats()
	if hits := after.CacheHits - before.CacheHits; hits != depth {
		t.Fatalf("warm reads hit cache %d times, want %d", hits, depth)
	}
	if after.ReadAheadBlocks != depth {
		t.Fatalf("ReadAheadBlocks = %d, want %d", after.ReadAheadBlocks, depth)
	}
}

func TestReadAheadClampsAtDeviceEnd(t *testing.T) {
	const blocks = 8
	s := newServer(t, blocks, WithCache(16))
	s.SetReadAhead(16)
	dev := s.Archiver().Device()
	bs := uint64(dev.BlockSize())

	// A miss on the second-to-last block leaves only one block to warm;
	// the sweep must stop at the device end, not error or wrap.
	if _, _, err := s.ReadPiece(uint64(blocks-2)*bs, bs); err != nil {
		t.Fatal(err)
	}
	waitReadAhead(t, s, 1)
	if got := s.Stats().ReadAheadBlocks; got != 1 {
		t.Fatalf("ReadAheadBlocks = %d, want 1 (clamped)", got)
	}
	// A miss on the very last block has nothing to warm.
	if _, _, err := s.ReadPiece(uint64(blocks-1)*bs, bs); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if got := s.Stats().ReadAheadBlocks; got != 1 {
		t.Fatalf("ReadAheadBlocks after end-of-device read = %d, want 1", got)
	}
}

func TestReadAheadDisabledByDefault(t *testing.T) {
	s := newServer(t, 64, WithCache(16))
	bs := uint64(s.Archiver().Device().BlockSize())
	if _, _, err := s.ReadPiece(0, 4*bs); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if got := s.Stats().ReadAheadBlocks; got != 0 {
		t.Fatalf("read-ahead ran while disabled: %d blocks", got)
	}
	// And with no cache, enabling read-ahead must be a no-op rather than
	// a nil dereference.
	dev, err := disk.NewOptical("opt1", disk.OpticalGeometry(16))
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(archiver.New(dev), WithCache(0))
	s2.SetReadAhead(4)
	if _, _, err := s2.ReadPiece(0, uint64(dev.BlockSize())); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if got := s2.Stats().ReadAheadBlocks; got != 0 {
		t.Fatalf("cacheless read-ahead ran: %d blocks", got)
	}
}

func TestReadAheadSweepRespectsSeekConcurrency(t *testing.T) {
	// With one seek slot, a read-ahead sweep in progress must not deadlock
	// or starve foreground reads.
	s := newServer(t, 256, WithCache(64))
	s.SetReadAhead(32)
	bs := uint64(s.Archiver().Device().BlockSize())
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 8; i++ {
				b := uint64(g*16 + i)
				if _, _, err := s.ReadPiece(b*bs, bs); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
