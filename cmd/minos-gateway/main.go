// Command minos-gateway is the web presentation gateway: it terminates
// many concurrent browser sessions over HTTP and SSE and maps each
// onto a workstation session multiplexed over a shared pool of backend
// connections — a single minos-server, a -cluster fleet, or the built-in
// demonstration corpus. Miniatures and opened-object views are served as
// PNG; browse steps and progressive passes are pushed; /metrics exposes
// the gateway counters plus each pool backend's tagged server stats.
//
// Usage:
//
//	minos-gateway [-addr :8080] [-connect host:port] [-cluster]
//	              [-pool n] [-slots n] [-max-sessions n]
//	              [-prefetch depth] [-fillers n]
//
// With -connect the gateway dials that server over the mux wire protocol,
// -pool times; with -cluster the address is a fleet seed and each pool
// connection is a routed cluster client (shards and replicas from the
// cluster map), so the same gateway fronts -shards 1 and -shards 4 fleets
// with no other change. Without -connect it serves the built-in corpus.
//
// The endpoint table is the package comment of internal/gateway (http.go):
// REST commands (session, query, step, open, progressive), PNG fetches,
// the per-session SSE push feed and /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minos/internal/cluster"
	"minos/internal/demo"
	"minos/internal/gateway"
	"minos/internal/wire"
	"minos/internal/workstation"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "minos-gateway: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("minos-gateway", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	connect := fs.String("connect", "", "backend server address (default: built-in corpus)")
	clusterSeed := fs.Bool("cluster", false, "treat -connect as a fleet seed and route via the cluster map")
	pool := fs.Int("pool", 4, "backend connection pool size")
	slots := fs.Int("slots", 64, "fair-share step slots across all sessions (0 = unbounded)")
	maxSessions := fs.Int("max-sessions", 0, "concurrent session cap (0 = unbounded)")
	prefetch := fs.Int("prefetch", 8, "browse read-ahead depth per session (0 = off)")
	fillers := fs.Int("fillers", 12, "filler documents in the built-in corpus")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pool < 1 {
		*pool = 1
	}

	backends, err := buildPool(*connect, *clusterSeed, *pool, *fillers)
	if err != nil {
		return err
	}
	defer func() {
		for _, be := range backends {
			be.Close()
		}
	}()

	cfg := gateway.Config{
		Backends:    backends,
		MaxSessions: *maxSessions,
		StepSlots:   *slots,
	}
	if *prefetch > 0 {
		cfg.Prefetch = &workstation.PrefetchConfig{Depth: *prefetch}
	}
	hub, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	defer hub.Close()

	hs := &http.Server{Addr: *addr, Handler: gateway.NewServer(hub)}
	fmt.Printf("minos-gateway: listening on %s (pool=%d, backend=%s)\n", *addr, *pool, backendName(*connect, *clusterSeed))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	select {
	case s := <-sig:
		fmt.Printf("minos-gateway: %v: shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(ctx)
		cancel()
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	st := hub.Stats()
	fmt.Printf("minos-gateway: served %d sessions (%d steps, %d queries, %d opens); %d pushes (%d dropped); PNG cache %d hits / %d misses; %d shed busy\n",
		st.SessionsOpened, st.Steps, st.Queries, st.Opens, st.Pushes, st.DroppedPushes, st.PNGHits, st.PNGMisses, st.Shed)
	return nil
}

func backendName(connect string, clustered bool) string {
	switch {
	case connect == "":
		return "built-in corpus"
	case clustered:
		return "cluster seed " + connect
	default:
		return connect
	}
}

// buildPool dials the shared backend connections. All three shapes return
// the same []workstation.Backend — the session layer never knows which.
func buildPool(connect string, clustered bool, pool, fillers int) ([]workstation.Backend, error) {
	backends := make([]workstation.Backend, 0, pool)
	if connect == "" {
		c, err := demo.Build(1<<16, fillers)
		if err != nil {
			return nil, err
		}
		for i := 0; i < pool; i++ {
			lt := wire.EthernetLink(&wire.Handler{Srv: c.Server})
			backends = append(backends, wire.NewClient(lt))
		}
		return backends, nil
	}
	if clustered {
		dial := func(ep string) (wire.Transport, error) { return wire.DialMux(ep) }
		for i := 0; i < pool; i++ {
			cc, err := cluster.Dial(connect, dial)
			if err != nil {
				closeAll(backends)
				return nil, fmt.Errorf("cluster dial %s: %w", connect, err)
			}
			backends = append(backends, cc)
		}
		return backends, nil
	}
	for i := 0; i < pool; i++ {
		tp, err := wire.DialMux(connect)
		if err != nil {
			closeAll(backends)
			return nil, fmt.Errorf("dial %s: %w", connect, err)
		}
		client := wire.NewClient(tp)
		client.EnableReconnect(func() (wire.Transport, error) { return wire.DialMux(connect) })
		backends = append(backends, client)
	}
	return backends, nil
}

func closeAll(backends []workstation.Backend) {
	for _, be := range backends {
		be.Close()
	}
}
