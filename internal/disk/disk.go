// Package disk simulates the storage devices of the MINOS server subsystem
// (§5): a write-once optical disk with huge capacity and slow seeks (the
// archiver's medium) and a high-performance magnetic disk. Devices return
// the service time of each operation computed from a seek/rotation/transfer
// model; the server's queueing simulation consumes those times on the
// virtual clock, which is how the paper's "queueing delays ... experienced
// when several users try to access data from the same device" concern is
// made measurable.
package disk

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Common errors.
var (
	ErrOutOfRange  = errors.New("disk: block out of range")
	ErrWornWritten = errors.New("disk: optical block already written (WORM)")
	ErrFull        = errors.New("disk: device full")
	ErrBadLength   = errors.New("disk: data length != block size")
)

// Device is a block device with a timing model.
type Device interface {
	// ReadBlock returns the block contents and the service time of the
	// read given the current head position. The slice is the device's own
	// copy of the block, shared with every other reader of it: treat it as
	// read-only. A later write to the block never changes a slice already
	// handed out.
	ReadBlock(n int) ([]byte, time.Duration, error)
	// WriteBlock stores a full block and returns the service time.
	WriteBlock(n int, data []byte) (time.Duration, error)
	// BlockSize returns the device block size in bytes.
	BlockSize() int
	// Blocks returns the device capacity in blocks.
	Blocks() int
	// SeekTime returns the head movement time to the block without
	// performing I/O (used by schedulers to order queues).
	SeekTime(n int) time.Duration
	// Head returns the current head block position.
	Head() int
	// Name identifies the device in statistics.
	Name() string
}

// Geometry parameterizes the timing model.
type Geometry struct {
	BlockSize      int
	Blocks         int
	BlocksPerTrack int
	// SeekBase is the fixed cost of any head movement; SeekPerTrack adds
	// per track crossed.
	SeekBase     time.Duration
	SeekPerTrack time.Duration
	// RotationHalf is the average rotational latency (half a revolution).
	RotationHalf time.Duration
	// TransferPerBlock is the media transfer time per block.
	TransferPerBlock time.Duration
}

func (g Geometry) validate() error {
	if g.BlockSize <= 0 || g.Blocks <= 0 || g.BlocksPerTrack <= 0 {
		return fmt.Errorf("disk: bad geometry %+v", g)
	}
	return nil
}

// OpticalGeometry mirrors a mid-1980s optical platter (scaled down so tests
// stay fast): 2 KiB blocks, slow seeks, modest transfer rate.
func OpticalGeometry(blocks int) Geometry {
	return Geometry{
		BlockSize:        2048,
		Blocks:           blocks,
		BlocksPerTrack:   32,
		SeekBase:         80 * time.Millisecond,
		SeekPerTrack:     200 * time.Microsecond,
		RotationHalf:     16 * time.Millisecond,
		TransferPerBlock: 4 * time.Millisecond,
	}
}

// MagneticGeometry mirrors a fast magnetic disk of the era.
func MagneticGeometry(blocks int) Geometry {
	return Geometry{
		BlockSize:        2048,
		Blocks:           blocks,
		BlocksPerTrack:   32,
		SeekBase:         8 * time.Millisecond,
		SeekPerTrack:     50 * time.Microsecond,
		RotationHalf:     8 * time.Millisecond,
		TransferPerBlock: 1 * time.Millisecond,
	}
}

type base struct {
	name string
	geo  Geometry

	// mu guards data, head, the written map of Optical, and the stats;
	// several server goroutines may hit the same device concurrently (the
	// server bounds that concurrency with its seek semaphore, but the
	// device must stay coherent whatever the bound is).
	mu   sync.Mutex
	data [][]byte
	head int

	// Stats.
	reads, writes int64
	busy          time.Duration
}

func (b *base) BlockSize() int { return b.geo.BlockSize }
func (b *base) Blocks() int    { return b.geo.Blocks }
func (b *base) Name() string   { return b.name }

func (b *base) Head() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.head
}

func (b *base) track(n int) int { return n / b.geo.BlocksPerTrack }

func (b *base) SeekTime(n int) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seekTimeLocked(n)
}

func (b *base) seekTimeLocked(n int) time.Duration {
	dt := b.track(n) - b.track(b.head)
	if dt < 0 {
		dt = -dt
	}
	if dt == 0 {
		return 0
	}
	return b.geo.SeekBase + time.Duration(dt)*b.geo.SeekPerTrack
}

// service moves the head to n and accounts the operation; callers hold mu.
func (b *base) service(n int) time.Duration {
	t := b.seekTimeLocked(n) + b.geo.RotationHalf + b.geo.TransferPerBlock
	b.head = n
	b.busy += t
	return t
}

func (b *base) check(n int) error {
	if n < 0 || n >= b.geo.Blocks {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, n, b.geo.Blocks)
	}
	return nil
}

// ReadBlock implements Device for both media; unwritten blocks read as
// zeroes. A written block is handed out as stored, capacity capped so an
// append by the caller cannot reach past it: writes install a fresh slice
// (WriteBlock copies its argument) and never touch an old one, so a block
// once returned stays what it was.
func (b *base) ReadBlock(n int) ([]byte, time.Duration, error) {
	if err := b.check(n); err != nil {
		return nil, 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reads++
	t := b.service(n)
	bs := b.geo.BlockSize
	if b.data[n] == nil {
		return make([]byte, bs), t, nil
	}
	return b.data[n][:bs:bs], t, nil
}

// Stats reports operation counts and cumulative busy time.
type Stats struct {
	Reads, Writes int64
	Busy          time.Duration
}

// Magnetic is a read-write magnetic disk.
type Magnetic struct{ base }

// NewMagnetic builds a magnetic disk with the given geometry.
func NewMagnetic(name string, geo Geometry) (*Magnetic, error) {
	if err := geo.validate(); err != nil {
		return nil, err
	}
	return &Magnetic{base{name: name, geo: geo, data: make([][]byte, geo.Blocks)}}, nil
}

// WriteBlock implements Device.
func (m *Magnetic) WriteBlock(n int, data []byte) (time.Duration, error) {
	if err := m.check(n); err != nil {
		return 0, err
	}
	if len(data) != m.geo.BlockSize {
		return 0, ErrBadLength
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writes++
	t := m.service(n)
	m.data[n] = append([]byte(nil), data...)
	return t, nil
}

// Stats returns the device's counters.
func (m *Magnetic) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Reads: m.reads, Writes: m.writes, Busy: m.busy}
}

// Optical is a write-once (WORM) optical disk: a block can be written
// exactly once and never rewritten.
type Optical struct {
	base
	written []bool
	next    int // next unwritten block for Append
}

// NewOptical builds an optical disk with the given geometry.
func NewOptical(name string, geo Geometry) (*Optical, error) {
	if err := geo.validate(); err != nil {
		return nil, err
	}
	return &Optical{
		base:    base{name: name, geo: geo, data: make([][]byte, geo.Blocks)},
		written: make([]bool, geo.Blocks),
	}, nil
}

// WriteBlock implements Device and enforces write-once semantics.
func (o *Optical) WriteBlock(n int, data []byte) (time.Duration, error) {
	if err := o.check(n); err != nil {
		return 0, err
	}
	if len(data) != o.geo.BlockSize {
		return 0, ErrBadLength
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.written[n] {
		return 0, fmt.Errorf("%w: block %d", ErrWornWritten, n)
	}
	o.writes++
	t := o.service(n)
	o.data[n] = append([]byte(nil), data...)
	o.written[n] = true
	if n >= o.next {
		o.next = n + 1
	}
	return t, nil
}

// Append writes data (any length) starting at the next unwritten block,
// padding the final block, and returns the starting block, the number of
// blocks used, and the cumulative service time. It is the archiver's write
// path.
func (o *Optical) Append(data []byte) (startBlock, nBlocks int, total time.Duration, err error) {
	bs := o.geo.BlockSize
	nBlocks = (len(data) + bs - 1) / bs
	if nBlocks == 0 {
		nBlocks = 1
	}
	// Reserve the block range up front so concurrent Appends cannot
	// interleave their extents.
	o.mu.Lock()
	if o.next+nBlocks > o.geo.Blocks {
		free := o.geo.Blocks - o.next
		o.mu.Unlock()
		return 0, 0, 0, fmt.Errorf("%w: need %d blocks, %d free", ErrFull, nBlocks, free)
	}
	startBlock = o.next
	o.next += nBlocks
	o.mu.Unlock()
	for i := 0; i < nBlocks; i++ {
		blk := make([]byte, bs)
		lo := i * bs
		hi := lo + bs
		if hi > len(data) {
			hi = len(data)
		}
		if lo < len(data) {
			copy(blk, data[lo:hi])
		}
		t, werr := o.WriteBlock(startBlock+i, blk)
		if werr != nil {
			return 0, 0, 0, werr
		}
		total += t
	}
	return startBlock, nBlocks, total, nil
}

// ReadExtent reads length bytes starting at byte offset off, spanning
// blocks, and returns the data plus cumulative service time.
func ReadExtent(d Device, off, length uint64) ([]byte, time.Duration, error) {
	bs := uint64(d.BlockSize())
	if length == 0 {
		return nil, 0, nil
	}
	// Bounds-check before allocating: a hostile length would otherwise
	// drive a huge allocation (or overflow off+length) before the per-block
	// range check ever fires.
	if off+length < off || off+length > bs*uint64(d.Blocks()) {
		return nil, 0, fmt.Errorf("%w: extent [%d, +%d)", ErrOutOfRange, off, length)
	}
	first := off / bs
	last := (off + length - 1) / bs
	var total time.Duration
	out := make([]byte, 0, length)
	for b := first; b <= last; b++ {
		blk, t, err := d.ReadBlock(int(b))
		if err != nil {
			return nil, total, err
		}
		total += t
		lo := uint64(0)
		if b == first {
			lo = off - b*bs
		}
		hi := bs
		if b == last {
			hi = off + length - b*bs
		}
		out = append(out, blk[lo:hi]...)
	}
	return out, total, nil
}

// Stats returns the device's counters.
func (o *Optical) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return Stats{Reads: o.reads, Writes: o.writes, Busy: o.busy}
}

// Used returns the number of written (or Append-reserved) blocks — the
// archiver's high-water mark.
func (o *Optical) Used() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.next
}
