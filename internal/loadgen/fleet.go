package loadgen

import (
	"fmt"
	"sort"

	"minos/internal/cluster"
	"minos/internal/demo"
	"minos/internal/object"
	"minos/internal/server"
)

// Fleet is a sharded object-server population for the load harness: the
// same consistent-hash ring the routed wire client uses, one primary per
// shard, and optionally a WORM read replica per shard for failover
// experiments.
type Fleet struct {
	Ring   *cluster.Ring
	Shards []FleetShard
}

// FleetShard is one shard of the fleet. Replica, when non-nil, holds a
// bit-identical copy of the primary's archive (WORM determinism: same
// objects published in the same order onto a fresh device yield the same
// layout), so archiver-absolute offsets from either server are valid on
// both.
type FleetShard struct {
	Primary *server.Server
	Replica *server.Server
}

// SingleFleet wraps one server as a 1-shard fleet, the legacy Run shape.
func SingleFleet(srv *server.Server) *Fleet {
	return &Fleet{
		Ring:   cluster.NewRing([]int{0}, 1),
		Shards: []FleetShard{{Primary: srv}},
	}
}

// BuildFleet publishes the standard load corpus (demo figures, fillers
// filler documents, spoken audio objects) partitioned across shards by the
// cluster hash ring. blocks is the per-shard optical capacity. With
// replicas, each shard also gets a read replica built by replaying the
// identical publish sequence onto a fresh device.
func BuildFleet(blocks, fillers, spoken, shards, vnodes int, replicas bool) (*Fleet, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("loadgen: shards must be positive")
	}
	ids := make([]int, shards)
	for i := range ids {
		ids[i] = i
	}
	ring := cluster.NewRing(ids, vnodes)
	list, err := demo.Objects(fillers)
	if err != nil {
		return nil, err
	}
	all := make([]*object.Object, 0, len(list)+spoken)
	for _, e := range list {
		all = append(all, e.Obj)
	}
	for i := 0; i < spoken; i++ {
		topic := queryTerms[i%len(queryTerms)]
		o, err := demo.SpokenObject(object.ID(500_000+i), topic, 60, i, 8000)
		if err != nil {
			return nil, fmt.Errorf("loadgen: spoken object %d: %w", i, err)
		}
		all = append(all, o)
	}
	f := &Fleet{Ring: ring, Shards: make([]FleetShard, shards)}
	for i := range f.Shards {
		p, err := demo.NewServer(fmt.Sprintf("shard%d", i), blocks)
		if err != nil {
			return nil, err
		}
		f.Shards[i].Primary = p
		if replicas {
			r, err := demo.NewServer(fmt.Sprintf("shard%d-replica", i), blocks)
			if err != nil {
				return nil, err
			}
			f.Shards[i].Replica = r
		}
	}
	// One global deterministic publish order; each shard sees the
	// subsequence the ring assigns it, primaries and replicas in lockstep.
	for _, o := range all {
		sh := &f.Shards[ring.Owner(o.ID)]
		if _, err := sh.Primary.Publish(o); err != nil {
			return nil, fmt.Errorf("loadgen: publish %d: %w", o.ID, err)
		}
		if sh.Replica != nil {
			if _, err := sh.Replica.Publish(o); err != nil {
				return nil, fmt.Errorf("loadgen: publish replica %d: %w", o.ID, err)
			}
		}
	}
	return f, nil
}

// RunFleet drives cfg.Sessions sessions against the fleet on the virtual
// clock and reports the measured result. Every shard primary (and replica)
// gets cfg.MaxInFlight admission slots and its own one-head device station
// — "same per-shard config", so fleet width is the only variable in a
// scaling experiment. Identical (fleet corpus, Config) inputs produce
// identical Results.
func RunFleet(f *Fleet, cfg Config) (Result, error) {
	if f == nil || len(f.Shards) == 0 {
		return Result{}, fmt.Errorf("loadgen: empty fleet")
	}
	pop, err := newPopulation(cfg.Sessions, cfg.StepsEach, cfg.Duration)
	if err != nil {
		return Result{}, err
	}
	if cfg.FailShardAt > 0 && (cfg.FailShard < 0 || cfg.FailShard >= len(f.Shards)) {
		return Result{}, fmt.Errorf("loadgen: FailShard %d out of range [0,%d)", cfg.FailShard, len(f.Shards))
	}
	scen := DefaultScenarios()

	h := &harness{
		population: pop,
		ring:       f.Ring,
		cfg:        cfg,
	}
	// One head per station: the paper's single optical head.
	h.nodes = make([]*node, len(f.Shards))
	for i, sh := range f.Shards {
		sh.Primary.SetMaxInFlight(cfg.MaxInFlight)
		n := &node{shard: i, primary: sh.Primary, replica: sh.Replica}
		n.pst = newStation(h.clock, 1, FCFS, nil)
		if sh.Replica != nil {
			sh.Replica.SetMaxInFlight(cfg.MaxInFlight)
			n.rst = newStation(h.clock, 1, FCFS, nil)
		}
		h.nodes[i] = n
	}
	cat, err := scanCatalog(h.nodes)
	if err != nil {
		return Result{}, err
	}
	h.cat = cat

	h.sessions = make([]*session, cfg.Sessions)
	for i := range h.sessions {
		s := &session{
			h:      h,
			tenant: uint64(i) + 1,
			scIdx:  i % len(scen),
			sc:     scen[i%len(scen)],
			hot:    i < cfg.HotSessions,
		}
		s.actor = actor{pop: &h.population, rng: sessionRNG(cfg.Seed, i), begin: s.beginStep}
		if !s.hot {
			s.think, s.jitter = s.sc.Think, s.sc.ThinkJitter
		}
		h.sessions[i] = s
		s.launch()
	}
	if cfg.FailShardAt > 0 {
		h.clock.AfterFunc(cfg.FailShardAt, func() {
			h.nodes[cfg.FailShard].failed = true
		})
	}
	h.clock.Run(0)
	return h.result(), nil
}

// scanCatalog builds the harness's view of the published fleet corpus: the
// object sets each step kind draws targets from, scanned once before the
// run and merged in ascending id order so target selection is independent
// of fleet width.
func scanCatalog(nodes []*node) (catalog, error) {
	var cat catalog
	for _, n := range nodes {
		srv := n.primary
		for _, id := range srv.IDs() {
			mode, ok := srv.Mode(id)
			if !ok {
				continue
			}
			if mode == object.Audio {
				cat.audio = append(cat.audio, id)
				continue
			}
			ext, err := srv.Archiver().ExtentOf(id)
			if err != nil {
				return cat, err
			}
			cat.visual = append(cat.visual, target{id: id, ext: extentRange{start: ext.Start, length: ext.Length}})
		}
	}
	sort.Slice(cat.visual, func(i, j int) bool { return cat.visual[i].id < cat.visual[j].id })
	sort.Slice(cat.audio, func(i, j int) bool { return cat.audio[i] < cat.audio[j] })
	if len(cat.visual) == 0 {
		return cat, fmt.Errorf("loadgen: corpus has no visual objects")
	}
	// Keep only terms that actually hit, so query steps exercise result
	// browsing rather than empty sets.
	for _, t := range queryTerms {
		for _, n := range nodes {
			if len(n.primary.Query(t)) > 0 {
				cat.terms = append(cat.terms, t)
				break
			}
		}
	}
	if len(cat.terms) == 0 {
		cat.terms = queryTerms
	}
	return cat, nil
}
