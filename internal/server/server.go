// Package server implements the MINOS multimedia object server subsystem
// (§5): it is "optical disk based", stores objects in the archived state,
// and "provides access methods, scheduling, cashing, version control". The
// workstation's presentation manager "requests the appropriate pieces of
// information from the multimedia object server", so the server interface
// is piece-oriented: descriptors and byte extents, never whole objects.
//
// Performance concerns — "queueing delays that may be experienced when
// several users try to access data from the same device" — show up here as
// Stats.DeviceWaits / DeviceWaitNanos on the live server; the modelled
// queueing and contention experiments (E-QUEUE, E-CONC) drive a Server from
// internal/loadgen (loadgen.RunQueue, loadgen.RunContention). This package
// holds only serving code.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minos/internal/archiver"
	"minos/internal/descriptor"
	"minos/internal/disk"
	img "minos/internal/image"
	"minos/internal/index"
	"minos/internal/layout"
	"minos/internal/object"
	"minos/internal/pool"
	"minos/internal/sched"
	"minos/internal/voice"
)

// MiniatureSize is the pixel width of object miniatures served to the
// sequential browsing interface (§5).
const MiniatureSize = 64

// Server is the multimedia object server. It is safe for concurrent use:
// the wire layer serves every connection in parallel, so all serving state
// is either immutable, guarded by mu, atomic, or (for the block cache and
// the devices) self-synchronizing. Device access is bounded by a seek
// semaphore — by default one outstanding device read, preserving the
// paper's single-optical-head queueing behaviour — so cache hits never
// queue behind a seek.
type Server struct {
	arch *archiver.Archiver
	// store is the segmented content index. It synchronizes itself
	// (lock-free snapshot queries, bounded memtable, background merge), so
	// neither Query nor Adopt involves s.mu for content retrieval.
	store *index.Store
	cache *BlockCache

	// devSem bounds concurrent device reads (the configurable "number of
	// heads") with per-tenant fair queueing; acquisition wait time is the
	// contention signal reported by Stats.
	devSem *sched.Semaphore

	// mu guards the serving maps below.
	mu sync.RWMutex
	// objs holds one serving record per published object. A record is
	// never edited in place: Adopt installs a fresh one, so a reader that
	// looked a record up before a re-publish keeps a consistent (if
	// superseded) view of it.
	objs map[object.ID]*served
	// rasters caches rasterized image parts so repeated view requests
	// pay the device once (the raster stays on the server's magnetic
	// disk / memory in the paper's architecture). Entries are created
	// before rasterization starts, so concurrent viewers of the same
	// image single-flight onto one rasterization.
	rasters map[string]*rasterJob

	// encHits / encMiss count MiniatureEncoded requests answered from a
	// record's encoded frame vs. those that had to encode (or found none).
	encHits atomic.Int64
	encMiss atomic.Int64

	// ra coordinates sequential block read-ahead: depth in blocks (0 =
	// disabled) plus a single-sweep claim so misses cannot fan out a
	// goroutine storm onto the seek semaphore.
	ra sched.ReadAhead

	// adm is the per-tenant admission gate for device-bound requests.
	// When the gate is full (or a tenant exceeds its fair share), Admit
	// sheds the request with ErrBusy instead of queueing without bound —
	// the client backs off and retries.
	adm *sched.Admission

	// cmap is this fleet member's cluster map: an opaque encoded payload
	// (internal/cluster owns the encoding) plus its epoch, handed to
	// clients at HELLO time and on epoch-mismatch refetches. Standalone
	// servers have none.
	cmapMu      sync.RWMutex
	cmapEpoch   uint64
	cmapPayload []byte

	// Stats (atomic: bumped on every piece read, no lock on the hot path).
	pieceReads   atomic.Int64
	bytesOut     atomic.Int64
	devWaits     atomic.Int64
	devWaitNanos atomic.Int64
	raBlocks     atomic.Int64
}

// served is what the server keeps in memory to answer browsing requests
// for one object. mini, mode and preview are fixed at Adopt. enc is the
// encoded-frame cache: the wire-ready miniature payload (a read-only
// shared slice), filled by the first MiniatureEncoded so warm requests
// skip the encoder. Because a re-publish replaces the whole record, an
// encoder that raced it fills the orphaned record and stale bytes never
// reach the live one.
type served struct {
	mini    *img.Bitmap
	mode    object.Mode
	preview *voice.Part // audio-mode objects only
	enc     atomic.Pointer[[]byte]
}

// rasterJob is a single-flight slot for one (object, image) raster: the
// first requester rasterizes, everyone else blocks on done and shares the
// result.
type rasterJob struct {
	done chan struct{}
	bm   *img.Bitmap
	dur  time.Duration
	err  error
}

// Option configures the server.
type Option func(*Server)

// WithCache installs a block cache of the given capacity (in device
// blocks). Zero capacity disables caching.
func WithCache(blocks int) Option {
	return func(s *Server) {
		if blocks > 0 {
			s.cache = NewBlockCache(blocks)
		} else {
			s.cache = nil
		}
	}
}

// SetSeekConcurrency bounds the number of device reads in flight at once.
// The default of 1 models the paper's single optical head; higher values
// model device arrays or request reordering hardware. Resizing is safe
// under load: growing grants slots to queued readers at once, shrinking
// lets readers already on the device drain before new ones are admitted —
// at no point do more readers than the new bound occupy the device
// together with newly admitted ones (see sched.Semaphore.Resize).
func (s *Server) SetSeekConcurrency(n int) {
	s.devSem.Resize(n)
}

// ErrBusy reports that the server refused to queue a request because its
// bounded in-flight queue is full. The condition is transient: the wire
// layer maps it to a distinct busy status and clients retry after backoff.
var ErrBusy = errors.New("server: busy")

// SetMaxInFlight bounds the number of device-bound requests admitted at
// once. Requests beyond the bound are shed with ErrBusy rather than queued
// without limit — under overload the server stays responsive to the cheap
// in-memory ops (query, miniatures) a degraded client needs. Zero (the
// default) leaves admission unbounded. Safe under load: a lowered bound
// sheds new requests until in-flight work drains below it; outstanding
// releases stay valid.
func (s *Server) SetMaxInFlight(n int) {
	s.adm.SetMax(n)
}

// Admit asks for an admission slot for one device-bound request on behalf
// of the anonymous tenant. See AdmitAs.
func (s *Server) Admit() (func(), error) { return s.AdmitAs(0) }

// AdmitAs asks for an admission slot on behalf of tenant (one wire
// connection, one simulated session). On success it returns a release
// function the caller must invoke when the request finishes; when the gate
// is full — or the tenant already holds its fair share of it while others
// are active — the request is shed with ErrBusy.
func (s *Server) AdmitAs(tenant uint64) (func(), error) {
	release, ok := s.adm.Admit(tenant)
	if !ok {
		return nil, ErrBusy
	}
	return release, nil
}

// SetReadAhead enables sequential block read-ahead: after a cache-miss
// read, the next n blocks are pulled into the block cache behind the seek
// semaphore, so a sequentially-browsing client finds its next extent
// already resident. Zero disables it (the default). Safe under load: the
// next cache miss observes the new depth; an in-flight sweep finishes at
// the old one.
func (s *Server) SetReadAhead(n int) {
	s.ra.SetDepth(n)
}

// New builds a server over an archiver. By default a modest cache is
// installed and device reads are serialized (seek concurrency 1).
func New(arch *archiver.Archiver, opts ...Option) *Server {
	s := &Server{
		arch:    arch,
		store:   index.NewStore(index.Config{}),
		cache:   NewBlockCache(256),
		devSem:  sched.NewSemaphore(1),
		adm:     sched.NewAdmission(0),
		objs:    map[object.ID]*served{},
		rasters: map[string]*rasterJob{},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// SetClusterMap installs (or replaces) the encoded cluster map this server
// hands to routing clients, with its epoch. Fleet assembly calls it on
// every member; replacing the map with a higher epoch is how a re-shard is
// announced — clients discover the move through an epoch-mismatch refetch,
// never through a hard error.
func (s *Server) SetClusterMap(epoch uint64, payload []byte) {
	s.cmapMu.Lock()
	s.cmapEpoch = epoch
	s.cmapPayload = payload
	s.cmapMu.Unlock()
}

// ClusterMap returns the encoded cluster map and its epoch; ok is false on
// a standalone (unsharded) server.
func (s *Server) ClusterMap() (epoch uint64, payload []byte, ok bool) {
	s.cmapMu.RLock()
	defer s.cmapMu.RUnlock()
	return s.cmapEpoch, s.cmapPayload, s.cmapPayload != nil
}

// Archiver exposes the underlying archive (the workstation never touches it
// directly; tests and tools do).
func (s *Server) Archiver() *archiver.Archiver { return s.arch }

// ContentIndex exposes the segmented content index store.
func (s *Server) ContentIndex() *index.Store { return s.store }

// Publish archives the object, indexes its content, and builds its
// miniature for the sequential browsing interface. It is the ingestion path
// used when an edited object is archived or mailed within the organization.
func (s *Server) Publish(o *object.Object, shared ...archiver.SharedPart) (time.Duration, error) {
	_, dur, err := s.arch.Archive(o, shared...)
	if err != nil {
		return dur, err
	}
	s.Adopt(o)
	return dur, nil
}

// Adopt ingests an already-archived object into the serving structures:
// the content index and the object's serving record (miniature, mode,
// voice preview). Adopting an id again replaces its record, which is what
// invalidates the encoded miniature. Recovery paths (archiver.Recover) use
// it to rebuild serving state from the medium.
func (s *Server) Adopt(o *object.Object) {
	// Pure work first; keep it outside the lock.
	rec := &served{mini: buildMiniature(o), mode: o.Mode}
	if o.Mode == object.Audio {
		if vp := o.PrimaryVoice(); vp != nil {
			rec.preview = voicePreview(vp)
		}
	}
	// The content index synchronizes itself: publishes accumulate in its
	// memtable and seal into immutable segments without touching s.mu, so
	// queries never serialize with the serving-map update below.
	s.store.AddObject(o)
	s.mu.Lock()
	s.objs[o.ID] = rec
	s.mu.Unlock()
}

// PreviewSeconds is the length of the voice preview attached to audio-mode
// miniatures: "an indication that an object is an audio mode object and
// some voice segments which are played as the miniature passes through the
// screen" (§5).
const PreviewSeconds = 5

// maxPreviewSamples additionally caps the preview at one default audio page
// of samples at the canonical rate (§2 pages voice; a preview is at most a
// page-sized prefix). The time cap alone scales with the part's recorded
// rate, so a part with a hostile or corrupt rate could drive PreviewSeconds
// worth of it into one unbounded wire frame; the absolute cap bounds the
// OpVoicePreview response no matter what the part claims. At sane
// rates (the canonical 8 kHz) the time cap is far below this and previews
// are byte-for-byte what they always were.
const maxPreviewSamples = voice.SampleRate * int(voice.DefaultPageLength/time.Second)

func voicePreview(vp *voice.Part) *voice.Part {
	n := vp.Rate * PreviewSeconds
	if n > len(vp.Samples) || n < 0 {
		n = len(vp.Samples)
	}
	if n > maxPreviewSamples {
		n = maxPreviewSamples
	}
	return &voice.Part{Rate: vp.Rate, Samples: vp.Samples[:n]}
}

// record returns the object's serving record, or nil when it is not
// published.
func (s *Server) record(id object.ID) *served {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.objs[id]
}

// VoicePreview returns the voice preview of an audio-mode object, or nil.
func (s *Server) VoicePreview(id object.ID) *voice.Part {
	if r := s.record(id); r != nil {
		return r.preview
	}
	return nil
}

// PublishMailed ingests a mailed object blob (received from another
// organization) into this server's archive: the blob is materialized and
// re-archived locally, completing the §4 mail cycle. Inside-mail blobs may
// carry pointers into a foreign archiver and are rejected.
func (s *Server) PublishMailed(blob []byte) (object.ID, time.Duration, error) {
	o, err := archiver.MaterializeMailed(blob, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("server: mailed blob: %w", err)
	}
	o.State = object.Editing // re-archive transitions it back
	dur, err := s.Publish(o)
	return o.ID, dur, err
}

// buildMiniature produces the small representation shown while browsing
// query results: a downscaled first image if the object has one, otherwise
// a downscaled first visual page. Audio mode objects get a voice-indicator
// badge drawn in the corner ("an indication that an object is an audio mode
// object", §5).
func buildMiniature(o *object.Object) *img.Bitmap {
	var full *img.Bitmap
	if len(o.Images) > 0 {
		full = o.Images[0].Rasterize()
	} else if o.Doc != nil {
		pages := layout.Paginate(o.Doc, layout.Spec{W: 256, H: 256})
		if len(pages) > 0 {
			full = pages[0].Bitmap
		}
	}
	if full == nil {
		full = img.NewBitmap(MiniatureSize, MiniatureSize)
	}
	f := (max(full.W, full.H) + MiniatureSize - 1) / MiniatureSize
	if f < 1 {
		f = 1
	}
	mini := full.Downscale(f) // always a fresh bitmap, even at f <= 1
	full.Release()
	if o.Mode == object.Audio {
		// Voice badge: small filled block top-right.
		mini.Fill(img.Rect{X: mini.W - 5, Y: 0, W: 5, H: 5}, true)
	}
	return mini
}

// ReadPiece serves an archiver-absolute byte extent through the block
// cache on behalf of the anonymous tenant. See ReadPieceAs.
func (s *Server) ReadPiece(off, length uint64) ([]byte, time.Duration, error) {
	return s.ReadPieceAs(0, off, length)
}

// ReadPieceAs serves an archiver-absolute byte extent through the block
// cache, returning the device service time actually incurred (cache hits
// cost nothing). Cache misses acquire the seek semaphore under the given
// tenant — waiters queue round-robin per tenant, so one session's backlog
// cannot starve another's single read — while cache hits proceed
// untouched.
func (s *Server) ReadPieceAs(tenant uint64, off, length uint64) ([]byte, time.Duration, error) {
	if length == 0 {
		s.pieceReads.Add(1)
		return nil, 0, nil
	}
	out, t, err := s.ReadPieceAppend(tenant, off, length, nil)
	if err != nil {
		return nil, t, err
	}
	return out, t, nil
}

// ReadPieceAppend is ReadPieceAs appending the extent's bytes onto dst
// instead of allocating a fresh slice, returning the extended slice. When
// dst has length bytes of spare capacity the read itself performs zero
// allocations on the cache-hit path — the streaming voice producer leans on
// this to serve every chunk out of one pooled buffer.
func (s *Server) ReadPieceAppend(tenant uint64, off, length uint64, dst []byte) ([]byte, time.Duration, error) {
	s.pieceReads.Add(1)
	if length == 0 {
		return dst, 0, nil
	}
	base := len(dst)
	dev := s.arch.Device()
	bs := uint64(dev.BlockSize())
	// Bounds-check before allocating: wire requests carry
	// client-controlled lengths, and an unchecked huge length would
	// overflow off+length or drive an enormous allocation.
	if off+length < off || off+length > bs*uint64(dev.Blocks()) {
		return dst, 0, fmt.Errorf("server: extent [%d, +%d) beyond device end %d", off, length, bs*uint64(dev.Blocks()))
	}
	first := off / bs
	last := (off + length - 1) / bs
	var total time.Duration
	missed := false
	out := dst
	// Pre-size once, after the bounds check (length is client-controlled
	// and must be validated before sizing anything by it).
	if need := base + int(length); cap(out) < need {
		grown := make([]byte, base, need)
		copy(grown, out)
		out = grown
	}
	for b := first; b <= last; b++ {
		var blk []byte
		if s.cache != nil {
			blk = s.cache.Get(b)
		}
		if blk == nil {
			var t time.Duration
			var err error
			blk, t, err = s.readDeviceBlock(tenant, dev, b)
			if err != nil {
				return dst, total, err
			}
			total += t
			missed = true
		}
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
	// Count bytes actually produced, not the client-claimed length: a
	// rejected oversized request must not skew the counter.
	s.bytesOut.Add(int64(len(out) - base))
	// A miss that reached the device hints at a sequential sweep: warm
	// the next blocks in the background so the follower request hits.
	if missed && s.cache != nil && s.ra.TryStart() {
		go s.readAheadFrom(last + 1)
	}
	return out, total, nil
}

// tenantReadAhead is the seek-semaphore tenant of the background
// read-ahead sweep: background warming competes as its own tenant so it
// can never crowd a user session out of its round-robin turn.
const tenantReadAhead = ^uint64(0)

// readAheadFrom pulls up to the configured depth of sequentially-next
// blocks into the block cache. It competes for the seek semaphore like any
// device reader (the optical head is still the bottleneck the paper
// worries about) but does not touch the contention counters: its queueing
// is background work, not a user-visible wait.
func (s *Server) readAheadFrom(first uint64) {
	defer s.ra.Done()
	dev := s.arch.Device()
	end := uint64(dev.Blocks())
	for i := uint64(0); i < uint64(s.ra.Depth()); i++ {
		b := first + i
		if b >= end {
			return
		}
		if s.cache.peek(b) != nil {
			continue
		}
		s.devSem.Acquire(tenantReadAhead)
		var err error
		if s.cache.peek(b) == nil { // re-check: a foreground read may have won
			var blk []byte
			if blk, _, err = dev.ReadBlock(int(b)); err == nil {
				s.cache.Put(b, blk)
				s.raBlocks.Add(1)
			}
		}
		s.devSem.Release()
		if err != nil {
			return
		}
	}
}

// readDeviceBlock reads one block under the seek semaphore, filling the
// cache. After waiting for a slot it re-checks the cache: another reader
// may have fetched the same block meanwhile, in which case the device is
// not touched again.
func (s *Server) readDeviceBlock(tenant uint64, dev disk.Device, b uint64) ([]byte, time.Duration, error) {
	if !s.devSem.TryAcquire() {
		start := time.Now()
		s.devSem.Acquire(tenant)
		s.devWaits.Add(1)
		s.devWaitNanos.Add(time.Since(start).Nanoseconds())
	}
	defer s.devSem.Release()
	if s.cache != nil {
		// peek, not Get: the caller's lookup already recorded this
		// request's miss.
		if blk := s.cache.peek(b); blk != nil {
			return blk, 0, nil
		}
	}
	blk, t, err := dev.ReadBlock(int(b))
	if err != nil {
		return nil, 0, err
	}
	if s.cache != nil {
		s.cache.Put(b, blk)
	}
	return blk, t, nil
}

// Descriptor reads and parses an object's descriptor through the cache.
func (s *Server) Descriptor(id object.ID) (*descriptor.Descriptor, time.Duration, error) {
	return s.DescriptorAs(0, id)
}

// DescriptorAs is Descriptor with the device reads attributed to tenant.
func (s *Server) DescriptorAs(tenant uint64, id object.ID) (*descriptor.Descriptor, time.Duration, error) {
	ext, err := s.arch.ExtentOf(id)
	if err != nil {
		return nil, 0, err
	}
	hdr, t1, err := s.ReadPieceAs(tenant, ext.Start, 8)
	if err != nil {
		return nil, t1, err
	}
	descLen := uint64(hdr[0])<<56 | uint64(hdr[1])<<48 | uint64(hdr[2])<<40 | uint64(hdr[3])<<32 |
		uint64(hdr[4])<<24 | uint64(hdr[5])<<16 | uint64(hdr[6])<<8 | uint64(hdr[7])
	if 8+descLen > ext.Length {
		return nil, t1, fmt.Errorf("server: object %d descriptor length %d exceeds extent", id, descLen)
	}
	raw, t2, err := s.ReadPieceAs(tenant, ext.Start+8, descLen)
	if err != nil {
		return nil, t1 + t2, err
	}
	d, err := descriptor.Parse(raw)
	return d, t1 + t2, err
}

// Fetch returns a FetchFunc resolving parts through the server (cache
// included), accumulating service time into dur if non-nil.
func (s *Server) Fetch(dur *time.Duration) descriptor.FetchFunc {
	return func(ref descriptor.PartRef) ([]byte, error) {
		data, t, err := s.ReadPiece(ref.Offset, ref.Length)
		if dur != nil {
			*dur += t
		}
		return data, err
	}
}

// Load fully materializes an object through the server.
func (s *Server) Load(id object.ID) (*object.Object, time.Duration, error) {
	var dur time.Duration
	d, t, err := s.Descriptor(id)
	dur += t
	if err != nil {
		return nil, dur, err
	}
	o, err := d.Materialize(s.Fetch(&dur))
	return o, dur, err
}

// ImageView serves only the requested rectangle of an image part — the §2
// view mechanism: "the system will only retrieve the relevant data". The
// raster is decoded once per (object, image) and cached server-side; the
// response carries just the view's pixels, so link traffic scales with the
// view area, not the image area.
func (s *Server) ImageView(id object.ID, name string, r img.Rect) (*img.Bitmap, time.Duration, error) {
	return s.ImageViewAs(0, id, name, r)
}

// ImageViewAs is ImageView with the device reads attributed to tenant.
func (s *Server) ImageViewAs(tenant uint64, id object.ID, name string, r img.Rect) (*img.Bitmap, time.Duration, error) {
	key := fmt.Sprintf("%d/%s", id, name)
	s.mu.Lock()
	job, ok := s.rasters[key]
	if !ok {
		job = &rasterJob{done: make(chan struct{})}
		s.rasters[key] = job
	}
	s.mu.Unlock()
	var dur time.Duration
	if ok {
		// Another request rasterized (or is rasterizing) this image:
		// wait and share its raster; no device time is charged, as with
		// any cache hit.
		<-job.done
	} else {
		job.bm, job.dur, job.err = s.rasterize(tenant, id, name)
		if job.err != nil {
			// Do not cache failures: a later Publish may make the
			// view servable.
			s.mu.Lock()
			delete(s.rasters, key)
			s.mu.Unlock()
		}
		close(job.done)
		dur = job.dur
	}
	if job.err != nil {
		return nil, dur, job.err
	}
	raster := job.bm
	clipped := r.Clip(img.Rect{X: 0, Y: 0, W: raster.W, H: raster.H})
	return raster.Extract(clipped), dur, nil
}

// rasterize decodes and rasterizes the named image part of an object,
// charging the device time incurred.
func (s *Server) rasterize(tenant uint64, id object.ID, name string) (*img.Bitmap, time.Duration, error) {
	d, dur, err := s.DescriptorAs(tenant, id)
	if err != nil {
		return nil, dur, err
	}
	var ref *descriptor.PartRef
	for i := range d.Parts {
		if d.Parts[i].Kind == descriptor.PartImage && d.Parts[i].Name == name {
			ref = &d.Parts[i]
			break
		}
	}
	if ref == nil {
		return nil, dur, fmt.Errorf("server: object %d has no image %q", id, name)
	}
	raw, t2, err := s.ReadPieceAs(tenant, ref.Offset, ref.Length)
	dur += t2
	if err != nil {
		return nil, dur, err
	}
	v, err := descriptor.DecodePart(descriptor.PartImage, raw)
	if err != nil {
		return nil, dur, err
	}
	im := v.(*img.Image)
	raster := im.Rasterize()
	labels := im.RasterizeLabels()
	raster.Or(labels, 0, 0)
	labels.Release()
	return raster, dur, nil
}

// PublishVersion archives o as a new version superseding prevID; the
// server subsystem "provides access methods, scheduling, cashing, version
// control" (§5).
func (s *Server) PublishVersion(o *object.Object, prevID object.ID, shared ...archiver.SharedPart) (time.Duration, error) {
	_, dur, err := s.arch.ArchiveVersion(o, prevID, shared...)
	if err != nil {
		return dur, err
	}
	s.Adopt(o)
	return dur, nil
}

// Versions returns the version lineage of id, newest first.
func (s *Server) Versions(id object.ID) []object.ID { return s.arch.VersionChain(id) }

// Query evaluates a content query ("users submit queries based on object
// content from their workstation", §5) and returns qualifying object ids.
// It takes no server lock: the segmented index serves queries off an
// immutable snapshot, so queries run concurrently with each other and with
// publishes.
func (s *Server) Query(terms ...string) []object.ID {
	return s.store.Search(index.Query{Terms: terms}, nil)
}

// QueryPlanned evaluates a planned content query: AND terms (ordered and
// executed by the index planner) combined with attribute predicates from
// the descriptor — driving mode and archive date range.
func (s *Server) QueryPlanned(q index.Query) []object.ID {
	return s.store.Search(q, nil)
}

// Miniature returns the object's miniature, or nil.
func (s *Server) Miniature(id object.ID) *img.Bitmap {
	if r := s.record(id); r != nil {
		return r.mini
	}
	return nil
}

// MiniatureEncoded returns the wire-encoded miniature payload
// (descriptor.EncodePart(PartBitmap, ...) bytes) and driving mode for id,
// serving warm requests from the record's encoded frame without touching
// the raster or the encoder. The returned slice is shared with the record
// and must be treated as read-only; it stays valid across a re-publish
// (the old record is dropped, its bytes are never recycled). ok is false
// when the object is not published.
func (s *Server) MiniatureEncoded(id object.ID) ([]byte, object.Mode, bool) {
	r := s.record(id)
	if r == nil {
		s.encMiss.Add(1)
		return nil, 0, false
	}
	if p := r.enc.Load(); p != nil {
		s.encHits.Add(1)
		return *p, r.mode, true
	}
	s.encMiss.Add(1)
	payload, err := descriptor.EncodePart(descriptor.PartBitmap, r.mini)
	if err != nil {
		return nil, r.mode, false
	}
	r.enc.Store(&payload)
	return payload, r.mode, true
}

// Mode returns the published object's driving mode.
func (s *Server) Mode(id object.ID) (object.Mode, bool) {
	if r := s.record(id); r != nil {
		return r.mode, true
	}
	return 0, false
}

// IDs lists the published objects.
func (s *Server) IDs() []object.ID { return s.arch.IDs() }

// Stats reports request counters, cache effectiveness and device
// contention. DeviceWaits counts device reads that had to queue for the
// seek semaphore; DeviceWaitNanos is the total wall time spent queueing —
// together they measure the §5 "queueing delays ... when several users try
// to access data from the same device".
type Stats struct {
	PieceReads int64
	BytesOut   int64
	CacheHits  int64
	CacheMiss  int64
	// DeviceWaits / DeviceWaitNanos report seek-semaphore contention.
	DeviceWaits     int64
	DeviceWaitNanos int64
	// ReadAheadBlocks counts blocks pulled into the cache by sequential
	// read-ahead rather than by a request.
	ReadAheadBlocks int64
	// Shed counts requests refused with ErrBusy by the bounded in-flight
	// admission queue (load shedding under overload).
	Shed int64
	// EncodedHits / EncodedMiss report encoded-frame cache effectiveness:
	// miniature requests answered from pre-encoded reply bytes versus
	// requests that had to encode.
	EncodedHits int64
	EncodedMiss int64
	// PoolAllocs / PoolRecycled are the process-wide buffer pool counters
	// (fresh allocations by Get, buffers parked for reuse by Put). They
	// span every pool in the process, not just this server's traffic.
	PoolAllocs   int64
	PoolRecycled int64
}

// Stats returns a consistent snapshot of the current counters; it is safe
// to call concurrently with any request traffic (the STATS wire request
// does exactly that).
func (s *Server) Stats() Stats {
	st := Stats{
		PieceReads:      s.pieceReads.Load(),
		BytesOut:        s.bytesOut.Load(),
		DeviceWaits:     s.devWaits.Load(),
		DeviceWaitNanos: s.devWaitNanos.Load(),
		ReadAheadBlocks: s.raBlocks.Load(),
		Shed:            s.adm.Shed(),
		EncodedHits:     s.encHits.Load(),
		EncodedMiss:     s.encMiss.Load(),
	}
	st.PoolAllocs, st.PoolRecycled = pool.Counters()
	if s.cache != nil {
		st.CacheHits, st.CacheMiss = s.cache.Counters()
	}
	return st
}

// ResetStats zeroes the counters (cache contents are kept).
func (s *Server) ResetStats() {
	s.pieceReads.Store(0)
	s.bytesOut.Store(0)
	s.devWaits.Store(0)
	s.devWaitNanos.Store(0)
	s.raBlocks.Store(0)
	s.adm.ResetShed()
	s.encHits.Store(0)
	s.encMiss.Store(0)
	pool.ResetCounters()
	if s.cache != nil {
		s.cache.ResetCounters()
	}
}
