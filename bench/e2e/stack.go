package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"

	"minos/internal/cluster"
	"minos/internal/core"
	"minos/internal/demo"
	"minos/internal/gateway"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/server"
	"minos/internal/vclock"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// The fixed stack, as deployed, in one process on real loopback TCP:
//
//	net/http client -> gateway.Server -> gateway.Hub -> workstation.Session
//	  -> cluster.Client -> wire.MuxTransport -> wire.ServeWith/Handler
//	  -> server.Server -> BlockCache / archiver / disk.Optical model / index.Store
//
// 2 shard primaries, no replicas; gateway pool of 2 routed cluster clients;
// the minos-gateway defaults for slots and prefetch; every cache at its
// package default.
const (
	poolSize      = 2
	stepSlots     = 64
	prefetchDepth = 8
	deviceBlocks  = 1 << 17 // 256 MiB of 2 KiB blocks per shard, allocated lazily
)

type stack struct {
	corpus  *corpus
	servers [shards]*server.Server
	addrs   [shards]string
	lns     [shards]net.Listener
	served  sync.WaitGroup

	dialled []*cluster.Client // every routed client this stack opened; the first poolSize are the gateway's
	hub     *gateway.Hub
	httpSrv *http.Server
	httpEnd chan error
	url     string

	// miniHash is each object's miniature pixel hash, read off the owning
	// server at set-up for the verifier.
	miniHash map[object.ID]uint64

	tr *tracer // nil on untraced runs
}

// buildStack publishes the corpus onto fresh shard servers, loads the
// synthetic index documents, and brings up listeners, the gateway pool,
// the hub and the HTTP server. It is the program-side half of set-up (the
// corpus itself is the benchmark's input and is generated once, before).
func buildStack(c *corpus, tr *tracer) (*stack, error) {
	s := &stack{corpus: c, tr: tr}
	for i := range s.servers {
		srv, err := demo.NewServer(fmt.Sprintf("archive%d", i), deviceBlocks)
		if err != nil {
			return nil, err
		}
		s.servers[i] = srv
	}
	// One loader per shard, each walking the global publish order and
	// taking what the ring assigns it — demo.BuildSharded's rule, so each
	// shard archive's byte layout is a function of the corpus alone.
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for i := range s.servers {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			errs[shard] = s.loadShard(shard)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	m := cluster.Map{Epoch: 1, Vnodes: cluster.DefaultVnodes}
	for i := range s.lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, err
		}
		s.lns[i] = l
		s.addrs[i] = l.Addr().String()
		m.Shards = append(m.Shards, cluster.Shard{ID: i, Primary: s.addrs[i]})
	}
	if err := m.Validate(); err != nil {
		s.Close()
		return nil, err
	}
	payload := m.Encode()
	for i, srv := range s.servers {
		srv.SetClusterMap(m.Epoch, payload)
		s.served.Add(1)
		go func(l net.Listener, srv *server.Server) {
			defer s.served.Done()
			wire.ServeWith(l, &wire.Handler{Srv: srv}, wire.ServeOpts{}) // returns when l closes
		}(s.lns[i], srv)
	}

	backends := make([]workstation.Backend, 0, poolSize)
	for i := 0; i < poolSize; i++ {
		cc, err := s.dialCluster()
		if err != nil {
			s.Close()
			return nil, err
		}
		backends = append(backends, s.backend(cc))
	}
	hub, err := gateway.New(gateway.Config{
		Backends:  backends,
		StepSlots: stepSlots,
		Prefetch:  &workstation.PrefetchConfig{Depth: prefetchDepth},
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	s.hub = hub
	var handler http.Handler = gateway.NewServer(hub)
	if tr != nil {
		handler = tr.middleware(handler)
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	s.url = "http://" + httpLn.Addr().String()
	s.httpSrv = &http.Server{Handler: handler}
	s.httpEnd = make(chan error, 1)
	go func() { s.httpEnd <- s.httpSrv.Serve(httpLn) }()
	return s, nil
}

func (s *stack) loadShard(shard int) error {
	srv := s.servers[shard]
	c := s.corpus
	for _, o := range c.Objects {
		if c.Ring.Owner(o.ID) != shard {
			continue
		}
		if _, err := srv.Publish(o); err != nil {
			return fmt.Errorf("publish %d on shard %d: %w", o.ID, shard, err)
		}
	}
	n := c.Shape.SynthDocs
	if c.Shape.StoreDocs > 0 {
		n = c.Shape.StoreDocs - srv.ContentIndex().Stats().Docs
	}
	// Merges run in the background; waiting out each one as soon as a seal
	// may have triggered it makes the segment layout the run starts from a
	// function of the corpus, not of goroutine timing.
	var d index.Doc
	for i := 0; i < n; i++ {
		c.synthDoc(shard, i, &d)
		srv.ContentIndex().Add(&d)
		if i%memtableDocs == memtableDocs-1 {
			srv.ContentIndex().WaitMerges()
		}
	}
	srv.ContentIndex().WaitMerges()
	return nil
}

// dialCluster opens one routed fleet client over multiplexed TCP, the way
// minos-gateway -cluster and cmd/minos -cluster do.
func (s *stack) dialCluster() (*cluster.Client, error) {
	cc, err := cluster.Dial(s.addrs[0], func(ep string) (wire.Transport, error) {
		mt, err := wire.DialMux(ep)
		if err != nil {
			return nil, err
		}
		if s.tr != nil {
			return &tracedTransport{MuxTransport: mt, tr: s.tr}, nil
		}
		return mt, nil
	})
	if err == nil {
		s.dialled = append(s.dialled, cc)
	}
	return cc, err
}

// backend is the Backend a session is given for cc: cc itself, or its
// tracing decorator on traced runs.
func (s *stack) backend(cc *cluster.Client) workstation.Backend {
	if s.tr != nil {
		return &tracedBackend{Backend: cc, tr: s.tr}
	}
	return cc
}

// newSession builds a workstation session the way the hub does: its own
// screen and virtual clock.
func newSession(be workstation.Backend) *workstation.Session {
	return workstation.New(be, core.Config{Screen: screen.New(240, 140), Clock: vclock.New()})
}

// expect computes the verifier's tables off the freshly built servers:
// miniature pixel hashes and, for the battery, brute-force hit counts.
func (s *stack) expect() {
	s.miniHash = make(map[object.ID]uint64, len(s.corpus.Objects))
	for _, o := range s.corpus.Objects {
		if bm := s.servers[s.corpus.Ring.Owner(o.ID)].Miniature(o.ID); bm != nil {
			s.miniHash[o.ID] = bm.Hash()
		}
	}
	for i := range s.corpus.Battery {
		q := &s.corpus.Battery[i]
		if q.Hits >= 0 {
			continue
		}
		q.Hits = 0
		for _, srv := range s.servers {
			q.Hits += len(srv.ContentIndex().SearchNaive(q.IQ))
		}
	}
}

// Close tears the stack down and waits for every goroutine it started.
func (s *stack) Close() {
	if s.hub != nil {
		s.hub.Close()
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
		<-s.httpEnd
	}
	for _, cc := range s.dialled {
		cc.Close()
	}
	for _, l := range s.lns {
		if l != nil {
			l.Close()
		}
	}
	s.served.Wait()
}
