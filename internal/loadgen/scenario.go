package loadgen

import (
	"time"

	"minos/internal/object"
	"minos/internal/server"
)

// Scenario is a workload generator profile: the step mix and pacing of one
// class of simulated user. The three stock scenarios correspond to the
// paper's application sketches (§6): office information systems, medical
// records, and the city-guide / tourist information system.
type Scenario struct {
	Name string
	// Step-kind weights (relative): content query, miniature browse
	// batch, piece read, audio fetch. A session picks each step from
	// this distribution with its private deterministic generator.
	QueryW, BrowseW, PieceW, AudioW int
	// Think is the base pause between steps; ThinkJitter adds a uniform
	// random extra so sessions do not march in lockstep.
	Think, ThinkJitter time.Duration
	// BrowseBatch is the number of miniatures fetched per browse step
	// (the sequential-browsing prefetch depth).
	BrowseBatch int
	// PieceLen caps the byte length of one piece read.
	PieceLen uint64
}

// Office models the §6 office information system: query-heavy filing and
// retrieval, miniature browsing of result sets, occasional full-piece
// document reads, almost no audio.
func Office() Scenario {
	return Scenario{
		Name:   "office",
		QueryW: 4, BrowseW: 4, PieceW: 2, AudioW: 0,
		Think: 400 * time.Millisecond, ThinkJitter: 400 * time.Millisecond,
		BrowseBatch: 8,
		PieceLen:    4096,
	}
}

// Medical models the medical records scenario: piece-read heavy (x-ray
// image extents dominate), with voice annotations fetched alongside.
func Medical() Scenario {
	return Scenario{
		Name:   "medical",
		QueryW: 2, BrowseW: 2, PieceW: 5, AudioW: 1,
		Think: 600 * time.Millisecond, ThinkJitter: 600 * time.Millisecond,
		BrowseBatch: 4,
		PieceLen:    16384,
	}
}

// CityGuide models the tourist information system: browsing-dominated
// (maps and miniatures) with frequent audio fetches (spoken guidance) and
// short think times — a kiosk user flipping through a guide.
func CityGuide() Scenario {
	return Scenario{
		Name:   "cityguide",
		QueryW: 1, BrowseW: 5, PieceW: 1, AudioW: 3,
		Think: 200 * time.Millisecond, ThinkJitter: 200 * time.Millisecond,
		BrowseBatch: 12,
		PieceLen:    2048,
	}
}

// DefaultScenarios returns the three stock scenarios; RunFleet assigns them
// to sessions round-robin.
func DefaultScenarios() []Scenario {
	return []Scenario{Office(), Medical(), CityGuide()}
}

// queryTerms is the vocabulary sessions draw query terms from; it matches
// the demo corpus filler topics so queries return non-empty result sets.
var queryTerms = []string{
	"lung", "heart", "shadow", "rhythm", "archive", "optical", "voice",
	"image", "browsing", "presentation", "workstation", "server", "map",
	"hospital", "university", "subway", "tour", "transparency", "report",
}

// Step kinds.
const (
	kindQuery = iota
	kindBrowse
	kindPiece
	kindAudio
)

// pick draws the next step kind from the scenario's weights. Until a query
// has landed a session has nothing to browse, so it queries (no draw).
// Without audio targets, audio fetches fold into browsing.
func (sc Scenario) pick(r *rng, haveResults, haveAudio bool) int {
	if !haveResults {
		return kindQuery
	}
	q, b, p, a := sc.QueryW, sc.BrowseW, sc.PieceW, sc.AudioW
	if !haveAudio {
		b += a
		a = 0
	}
	n := int(r.below(uint64(q + b + p + a)))
	switch {
	case n < q:
		return kindQuery
	case n < q+b:
		return kindBrowse
	case n < q+b+p:
		return kindPiece
	default:
		return kindAudio
	}
}

// BuildCorpus publishes the standard load-test corpus — the demo figure
// objects, fillers filler documents, and spoken audio-mode objects so the
// audio-fetch step has targets — onto one server: the 1-shard BuildFleet.
func BuildCorpus(blocks, fillers, spoken int) (*server.Server, error) {
	f, err := BuildFleet(blocks, fillers, spoken, 1, 1, false)
	if err != nil {
		return nil, err
	}
	return f.Shards[0].Primary, nil
}

// catalog is the harness's view of the published corpus: the object sets
// each step kind draws targets from, scanned once before the run (see
// scanCatalog in fleet.go).
type catalog struct {
	visual []target // visual-mode objects with their archive extents
	audio  []object.ID
	terms  []string
}

type target struct {
	id  object.ID
	ext extentRange
}

type extentRange struct {
	start, length uint64
}
