// Package minos is a from-scratch Go reproduction of "The Multimedia
// Object Presentation Manager of MINOS: A Symmetric Approach"
// (Christodoulakis, Ho, Theodoridou; SIGMOD 1986).
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); cmd/ holds the executables, examples/ the runnable examples,
// and bench_test.go in this package regenerates every figure and
// measurable claim of the paper (see EXPERIMENTS.md).
//
// # Wire protocol opcodes
//
// The workstation/server protocol (internal/wire) has one version. A
// connection opens with a HELLO exchange; after it every frame carries a
// correlation id, so many calls — and credit-based server-push streams —
// share the connection. Every request starts with a one-byte opcode
// (numbers 1, 4 and 6 are retired and never reused):
//
//	op  name              meaning
//	 2  OpDescriptor      fetch an object's presentation descriptor
//	 3  OpReadPiece       read (offset, length) of the archive
//	 5  OpList            list the archive's object ids
//	 7  OpImageView       server-side image zoom/clip
//	 8  OpVoicePreview    voice preview (page-sized prefix)
//	 9  OpStats           server statistics snapshot
//	10  OpHello           opens the connection (the ack carries the
//	                      cluster map of a fleet member)
//	11  OpMiniatures      batched miniatures with driving modes
//	12  OpClusterMap      epoch-checked cluster-map fetch
//	13  OpVoiceStream     open a voice PCM server-push stream
//	14  OpMiniatureStream open a progressive miniature stream
//	15  OpStreamCredit    grant flow-control credit to a stream
//	16  OpStreamCancel    cancel an open stream
//	17  OpQueryPlanned    content query (AND terms + kind/date
//	                      predicates) → sorted ids
//
// Stream frame layout, credit rules and failover-resume semantics are
// specified in DESIGN.md §10; the planned-query grammar, segment format
// and planner cost model in DESIGN.md §12.
//
// # Gateway HTTP endpoints
//
// cmd/minos-gateway terminates web browse sessions over HTTP, mapping each
// onto a workstation session served by a pooled backend (a single server
// or a routed fleet — the pool is []workstation.Backend, so the choice is
// invisible above the seam):
//
//	POST   /session                          open a session → {"session":id}
//	DELETE /session/{sid}                    close the session (204)
//	POST   /session/{sid}/query?q=terms      content query → {"hits":n}
//	GET    /session/{sid}/query?q=query      planned query (terms plus
//	                                         kind:/after:/before:) → {"hits":n}
//	POST   /session/{sid}/step?dir=next|prev browse step → step event JSON
//	POST   /session/{sid}/open?obj=N         open an object → opened event
//	POST   /session/{sid}/progressive?obj=N  progressive miniature passes
//	GET    /session/{sid}/mini/{obj}.png     miniature as PNG (cached encode)
//	GET    /session/{sid}/view.png           the session screen as PNG
//	GET    /session/{sid}/ws                 WebSocket push (steps + PNGs)
//	GET    /session/{sid}/events             SSE fallback for the push feed
//	GET    /metrics                          gateway counters + tagged
//	                                         server/cluster statistics
//
// Busy backends and the session cap answer 503 with Retry-After; gateway
// architecture and the Backend contract are specified in DESIGN.md §11.
package minos
