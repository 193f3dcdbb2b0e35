// Package workstation implements the user-facing session of §5: "users
// submit queries based on object content from their workstation. ...
// Miniatures of qualifying objects may be returned to the user using a
// sequential browsing interface. ... When the user selects the miniature of
// an object the multimedia object presentation manager undertakes the
// responsibility to present the information of the selected object."
//
// The session talks to the object server exclusively through the wire
// protocol (pieces, never whole objects in one request) and hands selected
// objects to a core.Manager. It also browses objects still in the editing
// state through the same presentation code path, as §4 requires
// ("duplication of software is not required").
package workstation

import (
	"context"
	"fmt"
	"time"

	"minos/internal/core"
	"minos/internal/descriptor"
	"minos/internal/formatter"
	img "minos/internal/image"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/wire"
)

// Session is one user's workstation session.
type Session struct {
	be  Backend
	mgr *core.Manager

	results []object.ID
	cursor  int

	// queryLog records the query that built the current result set plus
	// every refinement applied to it, in order. After a reconnect (the
	// server may have restarted) the session replays the log to re-derive
	// the result set instead of trusting the one fetched before the
	// failure. Entries carry full planned queries so attribute predicates
	// survive the replay, not just terms.
	queryLog []index.Query
	// seenReconnects is the client reconnect count the session last
	// synchronized against (see maybeResync).
	seenReconnects int64

	// pf, when non-nil, keeps the next miniatures of the result set
	// warming while the user views the current one (see prefetch.go).
	pf *prefetcher

	// FetchTime accumulates server device time attributed to this
	// session's piece requests.
	FetchTime time.Duration
}

// BrowseStep is one sequential-browsing cursor step.
type BrowseStep struct {
	ID   object.ID
	Mini *img.Bitmap
	Mode object.Mode
	// Stale marks a miniature served from the local cache while the
	// server was unreachable: possibly superseded, better than a blank
	// screen. A later step on a healthy connection serves fresh data.
	Stale bool
	// Done reports the cursor stepped past the end of the result set.
	Done bool
}

// New builds a session over any Backend — a single-server wire client and
// a routed fleet client drive the identical session code path. The manager
// configuration's Resolver is overridden to resolve relevant objects
// through the backend.
func New(be Backend, cfg core.Config) *Session {
	s := &Session{be: be, cursor: -1}
	cfg.Resolver = func(id object.ID) (*object.Object, error) {
		return s.load(id)
	}
	s.mgr = core.New(cfg)
	return s
}

// Manager exposes the presentation manager driving this session's screen.
func (s *Session) Manager() *core.Manager { return s.mgr }

// Backend exposes the session's retrieval backend (the gateway serves
// cache-miss miniature fetches through it on the session's connection).
func (s *Session) Backend() Backend { return s.be }

// EnablePrefetch turns on the browse read-ahead pipeline: sequential
// browsing fetches miniatures in batches of cfg.Batch per round trip and
// keeps the next cfg.Depth result miniatures warm in a client-side LRU
// while the user views the current one. Query and Refine invalidate the
// pipeline so a changed result set never surfaces a stale miniature.
func (s *Session) EnablePrefetch(cfg PrefetchConfig) {
	s.pf = newPrefetcher(s.be, cfg)
}

// PrefetchStats reports the read-ahead pipeline's counters (zero value if
// prefetching is not enabled).
func (s *Session) PrefetchStats() PrefetchStats {
	if s.pf == nil {
		return PrefetchStats{}
	}
	return s.pf.Stats()
}

// QueryCtx submits a content query and installs the qualifying objects as
// the sequential browsing result set. It returns the number of hits.
func (s *Session) QueryCtx(ctx context.Context, terms ...string) (int, error) {
	return s.QueryPlannedCtx(ctx, index.Query{Terms: append([]string(nil), terms...)})
}

// QueryPlannedCtx submits a planned content query — conjunctive terms plus
// attribute predicates (media kind, date range) — and installs the
// qualifying objects as the browsing result set.
func (s *Session) QueryPlannedCtx(ctx context.Context, q index.Query) (int, error) {
	ids, dur, err := s.be.QueryPlannedCtx(ctx, q)
	if err != nil {
		return 0, err
	}
	s.FetchTime += dur
	s.results = ids
	s.cursor = -1
	s.queryLog = []index.Query{q}
	s.seenReconnects = s.be.Reconnects()
	if s.pf != nil {
		s.pf.invalidate()
	}
	return len(ids), nil
}

// RefineCtx narrows the current result set with additional terms — the §5
// loop where the user returns "to the query specification interface to
// refine his filter". The refined set is the intersection of the current
// results with the new terms' matches.
func (s *Session) RefineCtx(ctx context.Context, terms ...string) (int, error) {
	ids, dur, err := s.be.QueryCtx(ctx, terms...)
	if err != nil {
		return 0, err
	}
	s.FetchTime += dur
	s.results = intersect(s.results, ids)
	s.cursor = -1
	s.queryLog = append(s.queryLog, index.Query{Terms: append([]string(nil), terms...)})
	if s.pf != nil {
		s.pf.invalidate()
	}
	return len(s.results), nil
}

// intersect keeps the members of base that appear in hits. Both are
// ascending without duplicates, as every Backend query answers, so one
// two-pointer pass does it and the result is ascending too. It is a fresh
// slice: base may still be in a prefetcher's hands.
func intersect(base, hits []object.ID) []object.ID {
	kept := make([]object.ID, 0, min(len(base), len(hits)))
	for i, j := 0, 0; i < len(base) && j < len(hits); {
		switch {
		case base[i] < hits[j]:
			i++
		case base[i] > hits[j]:
			j++
		default:
			kept = append(kept, base[i])
			i++
			j++
		}
	}
	return kept
}

// maybeResync re-derives session state that a server restart may have
// invalidated. The trigger is the client's reconnect counter: when it has
// moved since the session last synchronized, the prefetch generation is
// bumped (no pre-restart miniature may surface as fresh) and the query log
// is replayed to rebuild the result set. A failed replay (server still
// down) leaves the old state for degraded browsing and retries on the next
// step.
func (s *Session) maybeResync(ctx context.Context) {
	rc := s.be.Reconnects()
	if rc == s.seenReconnects {
		return
	}
	if s.pf != nil {
		s.pf.invalidate()
	}
	if len(s.queryLog) == 0 {
		s.seenReconnects = rc
		return
	}
	var rebuilt []object.ID
	for i, q := range s.queryLog {
		// Replay preserves each entry's attribute predicates.
		ids, dur, err := s.be.QueryPlannedCtx(ctx, q)
		if err != nil {
			// Keep the stale result set and the unsynchronized counter:
			// the next cursor step tries again.
			return
		}
		s.FetchTime += dur
		if i == 0 {
			rebuilt = ids
		} else {
			rebuilt = intersect(rebuilt, ids)
		}
	}
	s.results = rebuilt
	if s.cursor >= len(s.results) {
		s.cursor = len(s.results) - 1
	}
	// The replay itself may have reconnected again; record where we ended.
	s.seenReconnects = s.be.Reconnects()
}

// Results returns the current result set.
func (s *Session) Results() []object.ID { return append([]object.ID(nil), s.results...) }

// NextMiniatureCtx advances the sequential browsing interface and returns
// the next qualifying object's step. It reports Done=true past the last
// result. For audio-mode objects the voice preview plays as the miniature
// passes through the screen (§5). After a reconnect the session re-syncs
// first (replaying the query log) so a restarted server never leaves the
// browse on a phantom result set; while the server is unreachable a cached
// miniature may be served with Stale=true.
func (s *Session) NextMiniatureCtx(ctx context.Context) (BrowseStep, error) {
	s.maybeResync(ctx)
	if s.cursor+1 >= len(s.results) {
		return BrowseStep{Done: true}, nil
	}
	s.cursor++
	return s.stepAtCursor(ctx)
}

// PrevMiniatureCtx steps the browsing cursor back.
func (s *Session) PrevMiniatureCtx(ctx context.Context) (BrowseStep, error) {
	s.maybeResync(ctx)
	if s.cursor <= 0 {
		return BrowseStep{Done: true}, nil
	}
	s.cursor--
	return s.stepAtCursor(ctx)
}

func (s *Session) stepAtCursor(ctx context.Context) (BrowseStep, error) {
	id := s.results[s.cursor]
	var (
		mini *img.Bitmap
		mode object.Mode
		ferr error
	)
	if s.pf != nil {
		// Prefetch path: the batch reply ships the mode inline with the
		// miniature, so a cursor step costs no extra round trip for it.
		m, md, err := s.pf.ensure(ctx, s.results, s.cursor)
		if err != nil {
			ferr = err
		} else {
			mini, mode = m, md
		}
	} else {
		// A batch of one: the reply ships the mode inline with the
		// miniature, so even without prefetch a cursor step is a single
		// round trip on either backend.
		res, dur, err := s.be.MiniaturesCtx(ctx, []object.ID{id})
		s.FetchTime += dur
		switch {
		case err != nil:
			ferr = err
		case len(res) == 0 || !res[0].OK:
			ferr = &noMiniatureError{id: id}
		default:
			mini, mode = res[0].Mini, res[0].Mode
		}
	}
	if ferr != nil {
		// Degraded browsing: the retry loop already exhausted itself on a
		// transient failure (server down or mid-restart). A cached
		// miniature — flagged stale — keeps the user browsing; there is
		// no voice preview (it would need the server).
		if wire.IsRetryable(ferr) && s.pf != nil {
			if e, ok := s.pf.staleEntry(id); ok {
				return BrowseStep{ID: id, Mini: e.mini, Mode: e.mode, Stale: true}, nil
			}
		}
		return BrowseStep{ID: id}, ferr
	}
	if mode == object.Audio {
		if vp, pdur, perr := s.be.VoicePreviewCtx(ctx, id); perr == nil {
			s.FetchTime += pdur
			s.mgr.MsgPlayer().Load(vp)
			s.mgr.MsgPlayer().Play(0, 0, nil)
		}
	}
	return BrowseStep{ID: id, Mini: mini, Mode: mode}, nil
}

// ShowBrowserCtx renders the sequential browsing interface on the session's
// screen, bounded by ctx: a filmstrip of the result set's miniatures with
// the cursor's miniature highlighted, as §5 describes for browsing "a large
// number of objects that may qualify". The visible miniatures are fetched in
// batched round trips (MaxMiniatureBatch per OpMiniatures), never one by one.
func (s *Session) ShowBrowserCtx(ctx context.Context) error {
	scr := s.mgr.Screen()
	w, h := scr.ContentWidth(), scr.ContentHeight()
	page := img.NewBitmap(w, h)
	img.DrawString(page, 4, 2, fmt.Sprintf("%d QUALIFYING OBJECTS", len(s.results)))
	const cell = 72
	perRow := w / cell
	if perRow < 1 {
		perRow = 1
	}
	// Only the rows that fit on the page are fetched; the rest is "MORE".
	visible := len(s.results)
	more := false
	for i := range s.results {
		if 14+(i/perRow)*cell+cell > h {
			visible, more = i, true
			break
		}
	}
	minis := make(map[object.ID]*img.Bitmap, visible)
	for at := 0; at < visible; at += wire.MaxMiniatureBatch {
		chunk := s.results[at:min(at+wire.MaxMiniatureBatch, visible)]
		res, dur, err := s.be.MiniaturesCtx(ctx, chunk)
		s.FetchTime += dur
		if err != nil {
			return err
		}
		for _, r := range res {
			if !r.OK {
				return &noMiniatureError{id: r.ID}
			}
			minis[r.ID] = r.Mini
		}
	}
	if more {
		img.DrawString(page, 4, h-10, "MORE ...")
	}
	for i, id := range s.results[:visible] {
		row, col := i/perRow, i%perRow
		x, y := 4+col*cell, 14+row*cell
		page.Or(minis[id], x+2, y+2)
		if i == s.cursor {
			// Highlight the cursor's miniature with a border.
			for bx := 0; bx < cell-4; bx++ {
				page.Set(x+bx, y, true)
				page.Set(x+bx, y+cell-6, true)
			}
			for by := 0; by < cell-5; by++ {
				page.Set(x, y+by, true)
				page.Set(x+cell-5, y+by, true)
			}
		}
	}
	scr.SetTitle("QUERY RESULTS")
	scr.PinStrip(nil)
	scr.ShowPage(page)
	scr.SetMenu([]string{"NEXT MINIATURE", "PREV MINIATURE", "OPEN", "REFINE QUERY"})
	scr.SetIndicators(nil)
	return nil
}

// OpenSelected presents the object under the browsing cursor: the manager
// takes over, fetching the descriptor and parts from the server.
func (s *Session) OpenSelected() error {
	if s.cursor < 0 || s.cursor >= len(s.results) {
		return fmt.Errorf("workstation: no miniature selected")
	}
	return s.OpenObject(s.results[s.cursor])
}

// OpenObject presents an arbitrary published object.
func (s *Session) OpenObject(id object.ID) error {
	o, err := s.load(id)
	if err != nil {
		return err
	}
	return s.mgr.Open(o)
}

func (s *Session) load(id object.ID) (*object.Object, error) {
	ctx := context.Background()
	d, dur, err := s.be.DescriptorCtx(ctx, id)
	if err != nil {
		return nil, err
	}
	s.FetchTime += dur
	// Piece reads carry the object id so a fleet backend routes them to
	// the shard whose archive the descriptor's extents are absolute in.
	return d.Materialize(func(ref descriptor.PartRef) ([]byte, error) {
		data, t, err := s.be.ObjectPieceCtx(ctx, id, ref.Offset, ref.Length)
		s.FetchTime += t
		return data, err
	})
}

// BrowseEditing presents the formatter's current object — still in the
// editing state — through the same presentation manager (§4).
func (s *Session) BrowseEditing(f *formatter.Formatter) error {
	o := f.Object()
	if o == nil {
		return fmt.Errorf("workstation: formatter has no object yet")
	}
	return s.mgr.Open(o)
}

// Close drains any in-flight prefetches and releases the backend.
func (s *Session) Close() error {
	s.Detach()
	return s.be.Close()
}

// Detach ends the session without closing its backend: in-flight
// prefetches are drained, the connection is left open. Gateway sessions
// use it — many sessions share one pooled mux connection, so no single
// session may close it.
func (s *Session) Detach() {
	if s.pf != nil {
		s.pf.drain()
	}
}
