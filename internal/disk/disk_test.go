package disk

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"testing/quick"
	"time"
)

func newOpt(t testing.TB, blocks int) *Optical {
	t.Helper()
	o, err := NewOptical("opt0", OpticalGeometry(blocks))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func newMag(t testing.TB, blocks int) *Magnetic {
	t.Helper()
	m, err := NewMagnetic("mag0", MagneticGeometry(blocks))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMagneticReadWrite(t *testing.T) {
	m := newMag(t, 64)
	blk := make([]byte, m.BlockSize())
	copy(blk, "hello")
	if _, err := m.WriteBlock(5, blk); err != nil {
		t.Fatal(err)
	}
	got, _, err := m.ReadBlock(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:5], []byte("hello")) {
		t.Fatal("read back mismatch")
	}
	// Rewrite is allowed on magnetic.
	copy(blk, "world")
	if _, err := m.WriteBlock(5, blk); err != nil {
		t.Fatal(err)
	}
	got, _, _ = m.ReadBlock(5)
	if !bytes.Equal(got[:5], []byte("world")) {
		t.Fatal("rewrite lost")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := newMag(t, 8)
	got, _, err := m.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

func TestWORMRejectsRewrite(t *testing.T) {
	o := newOpt(t, 16)
	blk := make([]byte, o.BlockSize())
	if _, err := o.WriteBlock(2, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteBlock(2, blk); !errors.Is(err, ErrWornWritten) {
		t.Fatalf("rewrite err = %v, want ErrWornWritten", err)
	}
}

func TestOutOfRange(t *testing.T) {
	m := newMag(t, 8)
	if _, _, err := m.ReadBlock(8); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("read past end accepted")
	}
	if _, _, err := m.ReadBlock(-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("negative read accepted")
	}
	if _, err := m.WriteBlock(99, make([]byte, m.BlockSize())); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("write past end accepted")
	}
}

func TestBadLength(t *testing.T) {
	m := newMag(t, 8)
	if _, err := m.WriteBlock(0, []byte("short")); !errors.Is(err, ErrBadLength) {
		t.Fatal("short write accepted")
	}
}

func TestSeekTimeModel(t *testing.T) {
	o := newOpt(t, 1024)
	// Same track: zero seek.
	if o.SeekTime(0) != 0 {
		t.Fatalf("seek to head = %v", o.SeekTime(0))
	}
	near := o.SeekTime(o.Blocks() / 8)
	far := o.SeekTime(o.Blocks() - 1)
	if near == 0 || far <= near {
		t.Fatalf("seek model not monotonic: near=%v far=%v", near, far)
	}
}

func TestServiceTimeAdvancesHead(t *testing.T) {
	m := newMag(t, 1024)
	_, t1, _ := m.ReadBlock(1000)
	if m.Head() != 1000 {
		t.Fatal("head not moved")
	}
	_, t2, _ := m.ReadBlock(1001)
	if t2 >= t1 {
		t.Fatalf("adjacent read (%v) not faster than long seek (%v)", t2, t1)
	}
}

func TestOpticalSlowerThanMagnetic(t *testing.T) {
	o := newOpt(t, 1024)
	m := newMag(t, 1024)
	_, to, _ := o.ReadBlock(800)
	_, tm, _ := m.ReadBlock(800)
	if to <= tm {
		t.Fatalf("optical (%v) not slower than magnetic (%v)", to, tm)
	}
}

func TestAppendAndReadExtent(t *testing.T) {
	o := newOpt(t, 64)
	data := bytes.Repeat([]byte("minos-data!"), 700) // ~7.7 KB, > 3 blocks
	start, n, _, err := o.Append(data)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 || n != (len(data)+o.BlockSize()-1)/o.BlockSize() {
		t.Fatalf("start=%d n=%d", start, n)
	}
	got, _, err := ReadExtent(o, 0, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("extent read mismatch")
	}
	// Second append lands after the first.
	start2, _, _, err := o.Append([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if start2 != n {
		t.Fatalf("second append at %d, want %d", start2, n)
	}
	if o.Used() != n+1 {
		t.Fatalf("Used = %d", o.Used())
	}
}

func TestReadExtentUnaligned(t *testing.T) {
	o := newOpt(t, 16)
	data := make([]byte, 3*o.BlockSize())
	for i := range data {
		data[i] = byte(i % 251)
	}
	if _, _, _, err := o.Append(data); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadExtent(o, 1000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[1000:4000]) {
		t.Fatal("unaligned extent mismatch")
	}
	// Zero length reads nothing.
	got, dur, err := ReadExtent(o, 5, 0)
	if err != nil || got != nil || dur != 0 {
		t.Fatal("zero-length extent misbehaved")
	}
}

func TestAppendFull(t *testing.T) {
	o := newOpt(t, 2)
	if _, _, _, err := o.Append(make([]byte, 3*o.BlockSize())); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull append err = %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := newMag(t, 16)
	m.ReadBlock(0)
	m.ReadBlock(1)
	m.WriteBlock(2, make([]byte, m.BlockSize()))
	s := m.Stats()
	if s.Reads != 2 || s.Writes != 1 || s.Busy == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBadGeometry(t *testing.T) {
	if _, err := NewMagnetic("x", Geometry{}); err == nil {
		t.Fatal("zero geometry accepted")
	}
	if _, err := NewOptical("x", Geometry{BlockSize: 100, Blocks: -1, BlocksPerTrack: 4}); err == nil {
		t.Fatal("negative blocks accepted")
	}
}

// Property: Append then ReadExtent round-trips arbitrary payloads.
func TestQuickAppendRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		if len(payload) > 8000 {
			payload = payload[:8000]
		}
		o, err := NewOptical("q", OpticalGeometry(16))
		if err != nil {
			return false
		}
		start, _, _, err := o.Append(payload)
		if err != nil {
			return false
		}
		got, _, err := ReadExtent(o, uint64(start*o.BlockSize()), uint64(len(payload)))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryDurationsPositive(t *testing.T) {
	for _, g := range []Geometry{OpticalGeometry(10), MagneticGeometry(10)} {
		if g.SeekBase <= 0 || g.RotationHalf <= 0 || g.TransferPerBlock <= 0 {
			t.Fatalf("geometry has non-positive timings: %+v", g)
		}
		if g.SeekBase < time.Microsecond {
			t.Fatal("implausible seek")
		}
	}
}

func TestImagePersistRoundTrip(t *testing.T) {
	o := newOpt(t, 64)
	data := bytes.Repeat([]byte("persist-me!"), 900)
	if _, _, _, err := o.Append(data); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/archive.mdsk"
	if err := o.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Blocks() != o.Blocks() || back.BlockSize() != o.BlockSize() {
		t.Fatalf("geometry lost: %d/%d", back.Blocks(), back.BlockSize())
	}
	if back.Used() != o.Used() {
		t.Fatalf("Used = %d, want %d", back.Used(), o.Used())
	}
	got, _, err := ReadExtent(back, 0, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost through persistence")
	}
	// WORM semantics survive: written blocks stay write-once.
	if _, err := back.WriteBlock(0, make([]byte, back.BlockSize())); !errors.Is(err, ErrWornWritten) {
		t.Fatalf("rewrite of restored block: %v", err)
	}
	// Appends continue past the restored high-water mark.
	start, _, _, err := back.Append([]byte("more"))
	if err != nil {
		t.Fatal(err)
	}
	if start != o.Used() {
		t.Fatalf("append at %d, want %d", start, o.Used())
	}
}

func TestLoadFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := dir + "/bad.mdsk"
	if err := os.WriteFile(bad, []byte("not a disk image at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("garbage image accepted")
	}
	if _, err := LoadFile(dir + "/missing.mdsk"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestReadBlockAliasing pins the shared-block contract: ReadBlock hands out
// the device's stored block without copying it, and nothing a writer does
// afterwards — scribbling on the slice it passed to WriteBlock or Append,
// rewriting the block on a magnetic disk — changes a block already handed
// out. Unwritten blocks still read as zeroes, a fresh slice each time.
func TestReadBlockAliasing(t *testing.T) {
	fill := func(n int, v byte) []byte { return bytes.Repeat([]byte{v}, n) }

	m := newMag(t, 8)
	src := fill(m.BlockSize(), 'a')
	if _, err := m.WriteBlock(2, src); err != nil {
		t.Fatal(err)
	}
	clear(src) // the caller reuses its buffer
	first, _, err := m.ReadBlock(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, fill(m.BlockSize(), 'a')) {
		t.Fatal("WriteBlock kept the caller's slice: scribbling on it changed the stored block")
	}
	if again, _, _ := m.ReadBlock(2); &again[0] != &first[0] {
		t.Fatal("two reads of one block returned different backing arrays: ReadBlock copied")
	}
	if cap(first) != m.BlockSize() {
		t.Fatalf("block handed out with cap %d: an append could reach past it", cap(first))
	}
	if _, err := m.WriteBlock(2, fill(m.BlockSize(), 'b')); err != nil { // magnetic rewrite
		t.Fatal(err)
	}
	if !bytes.Equal(first, fill(m.BlockSize(), 'a')) {
		t.Fatal("a rewrite changed a block previously returned by ReadBlock")
	}
	if now, _, _ := m.ReadBlock(2); !bytes.Equal(now, fill(m.BlockSize(), 'b')) {
		t.Fatal("rewrite not visible to a later read")
	}
	z1, _, _ := m.ReadBlock(5)
	z1[0] = 0xFF
	if z2, _, _ := m.ReadBlock(5); !bytes.Equal(z2, make([]byte, m.BlockSize())) {
		t.Fatal("unwritten block does not read as zeroes")
	}

	o := newOpt(t, 16)
	data := fill(3*o.BlockSize()/2, 'c')
	start, n, _, err := o.Append(data)
	if err != nil || n != 2 {
		t.Fatalf("Append: %d blocks, %v", n, err)
	}
	b0, _, _ := o.ReadBlock(start)
	b1, _, _ := o.ReadBlock(start + 1)
	clear(data)
	half := o.BlockSize() / 2
	if !bytes.Equal(b0, fill(o.BlockSize(), 'c')) || !bytes.Equal(b1[:half], fill(half, 'c')) || !bytes.Equal(b1[half:], make([]byte, half)) {
		t.Fatal("Append kept the caller's slice, or padded the last block wrongly")
	}
	if z, _, _ := o.ReadBlock(start + 2); !bytes.Equal(z, make([]byte, o.BlockSize())) {
		t.Fatal("unwritten optical block does not read as zeroes")
	}
}

// TestAllocReadBlock: reading a written block allocates nothing.
func TestAllocReadBlock(t *testing.T) {
	o := newOpt(t, 16)
	if _, _, _, err := o.Append(make([]byte, 4*o.BlockSize())); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, _, err := o.ReadBlock(2); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("ReadBlock allocates %.1f objects/run, want 0", avg)
	}
}
