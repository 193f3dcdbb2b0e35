// Command minos-server runs a MINOS multimedia object server over TCP,
// serving the demonstration corpus (the figure objects plus filler
// documents) through the wire protocol. Workstation sessions (cmd/minos,
// the examples) connect with -connect; cmd/minos-gateway fronts a server
// or fleet for web browsers, pooling its mux connections.
//
// Usage:
//
//	minos-server [-listen addr] [-fillers n] [-blocks n] [-archive file]
//	             [-idle-timeout d] [-seek-concurrency n] [-readahead n]
//	             [-max-inflight n] [-shards n] [-replicas] [-pprof addr]
//
// With -archive, the optical medium is loaded from the file when it exists
// (the archive directory is recovered by scanning the self-describing
// medium) and saved back to it after publishing the corpus.
//
// With -shards N > 0 the process runs an N-shard fleet instead of a single
// server: the corpus is partitioned across N shard primaries by the cluster
// hash ring, shard i listens on the -listen port plus i, and every instance
// serves the encoded cluster map at HELLO time so a routed client
// (internal/cluster) dialed at any endpoint discovers the whole fleet. With
// -replicas each shard also gets a WORM read replica (an identical rebuild
// of the shard's write-once archive) on the port after the primaries.
//
// Connections are served concurrently; a misbehaving connection (bad
// frame, stalled client past -idle-timeout) is dropped and logged without
// affecting the others. SIGINT/SIGTERM closes the listener, drains the
// open connections and reports the final server statistics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"minos/internal/archiver"
	"minos/internal/cluster"
	"minos/internal/demo"
	"minos/internal/disk"
	"minos/internal/server"
	"minos/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7086", "listen address")
	fillers := flag.Int("fillers", 20, "number of filler documents to publish")
	blocks := flag.Int("blocks", 1<<16, "optical disk capacity in 2 KiB blocks")
	archivePath := flag.String("archive", "", "persist the optical medium to this file")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "drop connections idle for this long (0 = never)")
	seek := flag.Int("seek-concurrency", 1, "device reads in flight at once (1 = single optical head)")
	readahead := flag.Int("readahead", 8, "blocks pulled into the cache behind a sequential sweep (0 = off)")
	maxInflight := flag.Int("max-inflight", 0, "device-bound requests served at once before shedding with busy (0 = unbounded)")
	shards := flag.Int("shards", 0, "run an N-shard fleet on consecutive ports (0 = single server)")
	replicas := flag.Bool("replicas", false, "with -shards, serve a WORM read replica per shard")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof profiling on this address (empty = off)")
	flag.Parse()

	if *pprofAddr != "" {
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("minos-server: pprof listen: %v", err)
		}
		fmt.Printf("minos-server: pprof on http://%s/debug/pprof/\n", pl.Addr())
		go func() {
			if err := http.Serve(pl, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("minos-server: pprof: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *shards > 0 {
		if err := serveFleet(*listen, *blocks, *fillers, *shards, *replicas,
			*seek, *readahead, *maxInflight, sig, *idle); err != nil {
			log.Fatalf("minos-server: %v", err)
		}
		return
	}

	srv, err := buildServer(*archivePath, *blocks, *fillers)
	if err != nil {
		log.Fatalf("minos-server: %v", err)
	}
	srv.SetSeekConcurrency(*seek)
	srv.SetReadAhead(*readahead)
	srv.SetMaxInFlight(*maxInflight)
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("minos-server: %v", err)
	}
	fmt.Printf("minos-server: %d objects published, listening on %s\n", len(srv.IDs()), l.Addr())
	if err := serve(l, srv, sig, *idle); err != nil {
		log.Fatalf("minos-server: %v", err)
	}
}

// serveFleet runs the N-shard deployment in one process: shard i's primary
// on the base port plus i, replicas (when enabled) on the ports after the
// primaries, and the encoded cluster map installed on every instance so any
// endpoint can bootstrap a routed client. One signal drains the whole fleet.
func serveFleet(listen string, blocks, fillers, shards int, replicas bool,
	seek, readahead, maxInflight int, sig <-chan os.Signal, idle time.Duration) error {
	host, portStr, err := net.SplitHostPort(listen)
	if err != nil {
		return fmt.Errorf("-listen %q: %w", listen, err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("-listen %q: port: %w", listen, err)
	}

	primaries, err := demo.BuildSharded(blocks, fillers, shards, cluster.DefaultVnodes)
	if err != nil {
		return err
	}
	// A second identical build IS the replica set: publishing the same
	// objects in the same order onto fresh write-once media reproduces
	// every shard archive byte for byte, so primary extent descriptors
	// remain valid against the replica.
	var replicaSet *demo.Sharded
	if replicas {
		replicaSet, err = demo.BuildSharded(blocks, fillers, shards, cluster.DefaultVnodes)
		if err != nil {
			return err
		}
	}

	m := cluster.Map{Epoch: 1, Vnodes: cluster.DefaultVnodes}
	for i := 0; i < shards; i++ {
		sh := cluster.Shard{
			ID:      i,
			Primary: net.JoinHostPort(host, strconv.Itoa(basePort+i)),
		}
		if replicas {
			sh.Replicas = []string{net.JoinHostPort(host, strconv.Itoa(basePort+shards+i))}
		}
		m.Shards = append(m.Shards, sh)
	}
	if err := m.Validate(); err != nil {
		return err
	}
	payload := m.Encode()

	type instance struct {
		srv  *server.Server
		addr string
		role string
	}
	var instances []instance
	for i, srv := range primaries.Servers {
		instances = append(instances, instance{srv, m.Shards[i].Primary, fmt.Sprintf("shard %d primary", i)})
	}
	if replicas {
		for i, srv := range replicaSet.Servers {
			instances = append(instances, instance{srv, m.Shards[i].Replicas[0], fmt.Sprintf("shard %d replica", i)})
		}
	}

	listeners := make([]net.Listener, len(instances))
	for i, in := range instances {
		in.srv.SetSeekConcurrency(seek)
		in.srv.SetReadAhead(readahead)
		in.srv.SetMaxInFlight(maxInflight)
		in.srv.SetClusterMap(m.Epoch, payload)
		l, err := net.Listen("tcp", in.addr)
		if err != nil {
			for _, open := range listeners[:i] {
				open.Close()
			}
			return fmt.Errorf("%s: %w", in.role, err)
		}
		listeners[i] = l
		fmt.Printf("minos-server: %s: %d objects, listening on %s\n",
			in.role, len(in.srv.IDs()), l.Addr())
	}

	done := make(chan error, len(instances))
	for i, in := range instances {
		go func(l net.Listener, srv *server.Server, role string) {
			done <- wire.ServeWith(l, &wire.Handler{Srv: srv}, wire.ServeOpts{
				IdleTimeout: idle,
				ErrorLog:    func(err error) { log.Printf("minos-server: %s: %v", role, err) },
			})
		}(listeners[i], in.srv, in.role)
	}

	var firstErr error
	select {
	case s := <-sig:
		fmt.Printf("minos-server: %v: shutting down fleet\n", s)
	case err := <-done:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			firstErr = err
		}
		done <- nil // keep the drain loop's count right
	}
	for _, l := range listeners {
		l.Close()
	}
	for range instances {
		<-done
	}
	for _, in := range instances {
		st := in.srv.Stats()
		fmt.Printf("minos-server: %s: %d piece reads, %d bytes out, %d shed busy\n",
			in.role, st.PieceReads, st.BytesOut, st.Shed)
	}
	return firstErr
}

// serve runs the wire server until a shutdown signal arrives (graceful:
// close the listener, drain connections, report stats) or the listener
// fails. Per-connection errors are logged, never fatal.
func serve(l net.Listener, srv *server.Server, sig <-chan os.Signal, idle time.Duration) error {
	done := make(chan error, 1)
	go func() {
		done <- wire.ServeWith(l, &wire.Handler{Srv: srv}, wire.ServeOpts{
			IdleTimeout: idle,
			ErrorLog:    func(err error) { log.Printf("minos-server: %v", err) },
		})
	}()
	select {
	case s := <-sig:
		fmt.Printf("minos-server: %v: shutting down\n", s)
		l.Close()
		<-done // ServeWith drains open connections before returning
	case err := <-done:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			return err
		}
	}
	st := srv.Stats()
	fmt.Printf("minos-server: served %d piece reads, %d bytes out; cache %d hits / %d misses; device waits %d (%v queued); %d read-ahead blocks; %d shed busy\n",
		st.PieceReads, st.BytesOut, st.CacheHits, st.CacheMiss, st.DeviceWaits, time.Duration(st.DeviceWaitNanos), st.ReadAheadBlocks, st.Shed)
	fmt.Printf("minos-server: encoded miniatures %d hits / %d misses; buffer pool %d fresh allocs / %d recycled\n",
		st.EncodedHits, st.EncodedMiss, st.PoolAllocs, st.PoolRecycled)
	return nil
}

func buildServer(archivePath string, blocks, fillers int) (*server.Server, error) {
	if archivePath != "" {
		if _, err := os.Stat(archivePath); err == nil {
			dev, err := disk.LoadFile(archivePath)
			if err != nil {
				return nil, err
			}
			arch, _, err := archiver.Recover(dev)
			if err != nil {
				return nil, err
			}
			srv := server.New(arch)
			// Rebuild serving state (index, miniatures, previews) from
			// the recovered objects.
			for _, id := range arch.IDs() {
				o, _, err := arch.Load(id)
				if err != nil {
					return nil, err
				}
				srv.Adopt(o)
			}
			fmt.Printf("minos-server: recovered %d objects from %s\n", len(arch.IDs()), archivePath)
			return srv, nil
		}
	}
	c, err := demo.Build(blocks, fillers)
	if err != nil {
		return nil, err
	}
	// A spoken object so live sessions can exercise the voice paths
	// (preview and stream); published after the demo corpus so the
	// corpus ids and order stay exactly demo.Build's.
	spoken, err := demo.SpokenObject(950, "city", 400, 7, 8000)
	if err != nil {
		return nil, err
	}
	if _, err := c.Server.Publish(spoken); err != nil {
		return nil, err
	}
	if archivePath != "" {
		if err := c.Server.Archiver().Device().SaveFile(archivePath); err != nil {
			return nil, err
		}
		fmt.Printf("minos-server: medium saved to %s\n", archivePath)
	}
	return c.Server, nil
}
