// HTTP transport over the Hub: the endpoint surface a browser (or the
// in-repo test client) speaks. Commands are REST calls; browse steps,
// opened objects and progressive passes are pushed over one SSE feed per
// session, and PNGs are fetched by URL (a pass's PNG rides inline).
//
// Endpoints — the one table; routes declares the same rows in code and
// TestRouteTable keeps the two equal:
//
//	POST   /session                     open a session        -> {"session":id}
//	DELETE /session/{sid}               close it (204); ends its event feeds
//	POST   /session/{sid}/query?q=...   content query         -> {"hits":n}
//	GET    /session/{sid}/query?q=...   planned query (kind:/after:/before:
//	                                    predicates allowed)   -> {"hits":n}
//	POST   /session/{sid}/step?dir=next|prev                  -> step event JSON
//	POST   /session/{sid}/open?obj=N    present an object     -> opened event JSON
//	POST   /session/{sid}/progressive?obj=N  stream passes to subscribers
//	                                    -> {"streamed":b,"passes":n}
//	GET    /session/{sid}/mini/{obj}    miniature PNG, {obj} = N.png (cached encode)
//	GET    /session/{sid}/view.png      current screen render
//	GET    /session/{sid}/events        SSE push: step, opened and pass events
//	GET    /metrics                     gateway + backend counters
//
// Busy backends and the session cap answer 503 with Retry-After.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"minos/internal/index"
	"minos/internal/object"
)

// Server straps the HTTP endpoint surface onto a Hub.
type Server struct {
	hub *Hub
	mux *http.ServeMux
}

// NewServer builds the HTTP layer over a Hub.
func NewServer(h *Hub) *Server {
	s := &Server{hub: h, mux: http.NewServeMux()}
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.pattern, rt.handle)
	}
	return s
}

// route is one row of the endpoint table: a ServeMux pattern and its handler.
type route struct {
	pattern string
	handle  http.HandlerFunc
}

// routes is the endpoint table NewServer registers, one row per pattern.
func (s *Server) routes() []route {
	return []route{
		{"POST /session", s.handleOpen},
		{"DELETE /session/{sid}", s.handleClose},
		{"POST /session/{sid}/query", s.handleQuery},
		{"GET /session/{sid}/query", s.handleQueryPlanned},
		{"POST /session/{sid}/step", s.handleStep},
		{"POST /session/{sid}/open", s.handleOpenObject},
		{"POST /session/{sid}/progressive", s.handleProgressive},
		{"GET /session/{sid}/mini/{obj}", s.handleMiniPNG},
		{"GET /session/{sid}/view.png", s.handleViewPNG},
		{"GET /session/{sid}/events", s.handleSSE},
		{"GET /metrics", s.handleMetrics},
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// sid parses the session id path segment.
func sid(r *http.Request) (uint64, error) {
	return strconv.ParseUint(r.PathValue("sid"), 10, 64)
}

// fail maps Hub errors onto HTTP statuses. Shed and session-limit both
// answer 503 with Retry-After — the browser-side contract is "back off
// and come back", exactly the wire client's busy semantics.
func fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoSession):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrBusy), errors.Is(err, ErrSessionLimit):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadGateway)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// admit wraps a backend-bound handler span in the fair-share gate.
func (s *Server) admit(w http.ResponseWriter, id uint64, fn func() error) {
	release, ok := s.hub.Admission().Admit(id)
	if !ok {
		fail(w, ErrBusy)
		return
	}
	defer release()
	if err := fn(); err != nil {
		fail(w, err)
	}
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	id, err := s.hub.Open()
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, map[string]uint64{"session": id})
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	id, err := sid(r)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return
	}
	if err := s.hub.CloseSession(id); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id, err := sid(r)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return
	}
	terms := strings.Fields(r.URL.Query().Get("q"))
	if len(terms) == 0 {
		http.Error(w, "q required", http.StatusBadRequest)
		return
	}
	s.admit(w, id, func() error {
		n, err := s.hub.Query(r.Context(), id, terms...)
		if err != nil {
			return err
		}
		writeJSON(w, map[string]int{"hits": n})
		return nil
	})
}

// handleQueryPlanned serves the planned-query endpoint: the q parameter is
// parsed by the index query grammar, so besides plain terms it accepts
// kind:visual|audio, after:YYYY-MM-DD and before:YYYY-MM-DD predicates,
// pushed down to the backend's segmented index.
func (s *Server) handleQueryPlanned(w http.ResponseWriter, r *http.Request) {
	id, err := sid(r)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return
	}
	raw := r.URL.Query().Get("q")
	if strings.TrimSpace(raw) == "" {
		http.Error(w, "q required", http.StatusBadRequest)
		return
	}
	q, err := index.ParseQuery(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.admit(w, id, func() error {
		n, err := s.hub.QueryPlanned(r.Context(), id, q)
		if err != nil {
			return err
		}
		writeJSON(w, map[string]int{"hits": n})
		return nil
	})
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	id, err := sid(r)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return
	}
	dir := 1
	if r.URL.Query().Get("dir") == "prev" {
		dir = -1
	}
	s.admit(w, id, func() error {
		ev, err := s.hub.Step(r.Context(), id, dir)
		if err != nil {
			return err
		}
		writeJSON(w, ev)
		return nil
	})
}

func (s *Server) handleOpenObject(w http.ResponseWriter, r *http.Request) {
	id, err := sid(r)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return
	}
	obj, err := strconv.ParseUint(r.URL.Query().Get("obj"), 10, 64)
	if err != nil {
		http.Error(w, "obj required", http.StatusBadRequest)
		return
	}
	s.admit(w, id, func() error {
		ev, err := s.hub.OpenObject(r.Context(), id, object.ID(obj))
		if err != nil {
			return err
		}
		writeJSON(w, ev)
		return nil
	})
}

func (s *Server) handleProgressive(w http.ResponseWriter, r *http.Request) {
	id, err := sid(r)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return
	}
	obj, err := strconv.ParseUint(r.URL.Query().Get("obj"), 10, 64)
	if err != nil {
		http.Error(w, "obj required", http.StatusBadRequest)
		return
	}
	s.admit(w, id, func() error {
		pp, err := s.hub.Progressive(r.Context(), id, object.ID(obj))
		if err != nil {
			return err
		}
		writeJSON(w, map[string]any{"streamed": pp.Streamed, "passes": pp.Passes})
		return nil
	})
}

func (s *Server) handleMiniPNG(w http.ResponseWriter, r *http.Request) {
	id, err := sid(r)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return
	}
	name, ok := strings.CutSuffix(r.PathValue("obj"), ".png")
	if !ok {
		http.Error(w, "want <obj>.png", http.StatusNotFound)
		return
	}
	obj, err := strconv.ParseUint(name, 10, 64)
	if err != nil {
		http.Error(w, "bad object id", http.StatusBadRequest)
		return
	}
	s.admit(w, id, func() error {
		data, err := s.hub.MiniaturePNG(r.Context(), id, object.ID(obj))
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "image/png")
		w.Write(data)
		return nil
	})
}

func (s *Server) handleViewPNG(w http.ResponseWriter, r *http.Request) {
	id, err := sid(r)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return
	}
	data, err := s.hub.ViewPNG(id)
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	w.Write(data)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.hub.WriteMetrics(r.Context(), w)
}

// handleSSE is the gateway's push channel: every event the session's
// commands emit goes out as an "event: <kind>" / "data: <json>" pair. Step
// and opened events carry an href to fetch their PNG. A pass has no URL of
// its own — its href names the final miniature, cached only after the last
// pass, and the miniature fetch waits on the stream's session lock — so a
// pass event carries its PNG inline, base64 in "png".
func (s *Server) handleSSE(w http.ResponseWriter, r *http.Request) {
	id, err := sid(r)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	events, cancel, err := s.hub.Subscribe(id)
	if err != nil {
		fail(w, err)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			out := struct {
				Event
				PNG []byte `json:"png,omitempty"`
			}{Event: ev}
			if ev.Kind == "pass" {
				out.PNG = ev.PNG
			}
			text, err := json.Marshal(out)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, text)
			fl.Flush()
		}
	}
}
