package workstation

import (
	"context"
	"sync"
	"testing"

	"minos/internal/core"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/vclock"
	"minos/internal/wire"
)

// TestTwoSessionsShareBoundedGate drives two workstation sessions on
// separate connections — therefore separate admission tenants — through a
// server whose in-flight bound is 1. Admission sheds whichever tenant
// finds the gate held; the wire client's retry loop absorbs the busy
// status, so both sessions must complete every browse step with correct
// results and neither may starve. This is the end-to-end shape of the
// per-tenant gate the E-LOAD harness measures at 10k sessions.
func TestTwoSessionsShareBoundedGate(t *testing.T) {
	_, srv := fixture(t)
	srv.SetMaxInFlight(1)

	h := &wire.Handler{Srv: srv}
	newSession := func() *Session {
		return New(wire.NewClient(wire.EthernetLink(h)),
			core.Config{Screen: screen.New(240, 140), Clock: vclock.New()})
	}

	const rounds = 25
	run := func(s *Session) error {
		for i := 0; i < rounds; i++ {
			if _, err := s.QueryCtx(context.Background(), "the"); err != nil {
				return err
			}
			for {
				step, err := s.NextMiniatureCtx(context.Background())
				if err != nil {
					return err
				}
				if step.Done {
					break
				}
				if step.Mini == nil {
					t.Errorf("nil miniature for object %d", step.ID)
				}
			}
			// Opening the object fetches descriptor and pieces over the
			// wire — the ops the admission gate actually covers.
			if err := s.OpenObject(object.ID(1 + i%2)); err != nil {
				return err
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	sessions := []*Session{newSession(), newSession()}
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			errs[i] = run(s)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d failed under the bounded gate: %v", i, err)
		}
	}

	// Both result sets intact after the contention.
	for i, s := range sessions {
		got := s.Results()
		if len(got) != 2 || got[0] != object.ID(1) || got[1] != object.ID(2) {
			t.Fatalf("session %d results = %v", i, got)
		}
	}
	if st := srv.Stats(); st.PieceReads == 0 {
		t.Fatalf("server saw no piece reads: %+v", st)
	}
}

// TestSessionsGetDistinctTenants pins the wiring the gate relies on: each
// connection claims its own tenant id from the shared handler.
func TestSessionsGetDistinctTenants(t *testing.T) {
	_, srv := fixture(t)
	h := &wire.Handler{Srv: srv}
	a, b := h.NewTenant(), h.NewTenant()
	if a == b || a == 0 || b == 0 {
		t.Fatalf("NewTenant issued %d then %d; want distinct non-zero ids", a, b)
	}
}
