// The Backend interface is the session's view of "the object server" —
// deliberately agnostic about whether one server or a sharded fleet is on
// the other end. §4's symmetry argument ("duplication of software is not
// required") extends to topology: the presentation manager's code path is
// identical for a single archive and for a consistent-hash fleet with
// replica failover, because the session only ever speaks this interface.
package workstation

import (
	"context"
	"time"

	"minos/internal/descriptor"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/server"
	"minos/internal/voice"
	"minos/internal/wire"
)

// Backend is everything a Session needs from the retrieval side: ctx-first
// queries, descriptor and piece reads, batched + pipelined miniatures, and
// the server-push streams. Both *wire.Client (one server) and
// *cluster.Client (routed fleet) implement it, so one Session type drives
// single-server and fleet deployments identically — the gateway, the CLI
// and the tests construct a Session the same way over either.
//
// Piece reads are id-routed (ObjectPieceCtx): descriptor offsets are
// archiver-absolute within the archive holding the object, so the object
// id is the routing key that keeps descriptor and piece reads on the same
// shard. The single-server client ignores the id.
type Backend interface {
	// QueryCtx evaluates a content query; QueryPlannedCtx evaluates a
	// planned one (conjunctive terms plus attribute predicates, pushed
	// down to the server's segmented index); ListCtx returns every
	// published object id. Durations are server device time attributed to
	// the call.
	QueryCtx(ctx context.Context, terms ...string) ([]object.ID, time.Duration, error)
	QueryPlannedCtx(ctx context.Context, q index.Query) ([]object.ID, time.Duration, error)
	ListCtx(ctx context.Context) ([]object.ID, time.Duration, error)

	// DescriptorCtx fetches an object's presentation descriptor;
	// ObjectPieceCtx reads a byte extent of the archive holding id.
	DescriptorCtx(ctx context.Context, id object.ID) (*descriptor.Descriptor, time.Duration, error)
	ObjectPieceCtx(ctx context.Context, id object.ID, off, length uint64) ([]byte, time.Duration, error)

	// MiniaturesCtx fetches a miniature batch (one round trip per server
	// touched); StartMiniatures launches one without waiting — the browse
	// prefetcher's pipelining hook. ModeCtx reports a driving mode (rides
	// the batched path on both implementations).
	MiniaturesCtx(ctx context.Context, ids []object.ID) ([]wire.MiniatureResult, time.Duration, error)
	StartMiniatures(ctx context.Context, ids []object.ID) wire.MiniatureBatch
	ModeCtx(ctx context.Context, id object.ID) (object.Mode, error)

	// VoicePreviewCtx fetches the page-sized voice preview played as an
	// audio-mode miniature passes through the screen — and the batch
	// fallback for transports that cannot open streams.
	VoicePreviewCtx(ctx context.Context, id object.ID) (*voice.Part, time.Duration, error)

	// VoiceStreamCtx and MiniatureStreamCtx open credit-based server-push
	// streams (DESIGN.md §10). Transports without the feature fail the
	// open with an error wire.StreamFallback classifies.
	VoiceStreamCtx(ctx context.Context, id object.ID, from uint64, window int) (wire.VoiceStreamInfo, wire.StreamConn, error)
	MiniatureStreamCtx(ctx context.Context, id object.ID, from uint64, window int) (wire.MiniatureStreamInfo, wire.StreamConn, error)

	// StatsCtx snapshots the serving-side counters (fleet backends
	// aggregate across shard primaries).
	StatsCtx(ctx context.Context) (server.Stats, error)

	// Reconnects is a counter that moves whenever a serving connection
	// was seen to die or was re-established. The session watches it to
	// decide when a restarted server may have invalidated cached browse
	// state.
	Reconnects() int64

	// Close releases the backend's connections.
	Close() error
}

// Compile-time conformance of the single-server client. (The fleet
// client's assertion lives in its own package's tests to keep this package
// free of a cluster dependency.)
var _ Backend = (*wire.Client)(nil)
