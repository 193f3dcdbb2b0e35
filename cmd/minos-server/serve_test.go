package main

import (
	"context"
	"net"
	"os"
	"testing"
	"time"

	"minos/internal/wire"
)

// TestServeGracefulShutdown boots the server loop on a real TCP listener,
// verifies it answers requests, survives a misbehaving connection, and
// shuts down cleanly on SIGINT.
func TestServeGracefulShutdown(t *testing.T) {
	srv, err := buildServer("", 1<<14, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serve(l, srv, sig, time.Minute) }()

	tp, err := wire.DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewClient(tp)
	ids, _, err := c.ListCtx(context.Background())
	if err != nil || len(ids) == 0 {
		t.Fatalf("List = %v, %v", ids, err)
	}

	// A hostile connection (oversized frame claim) must not take the
	// process down: the old code log.Fatal'ed the whole server.
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0xff, 0xff, 0xff, 0xff})
	raw.Close()

	// The well-behaved connection still works afterwards.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err = c.ListCtx(context.Background()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server stopped serving after bad connection: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, err := c.StatsCtx(context.Background())
	if err != nil {
		t.Fatalf("Stats over wire: %v", err)
	}
	if st.PieceReads < 0 {
		t.Fatalf("stats = %+v", st)
	}
	c.Close()

	// SIGINT: the listener closes, connections drain, serve returns nil.
	sig <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down after SIGINT")
	}
	if _, err := wire.DialMux(l.Addr().String()); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
