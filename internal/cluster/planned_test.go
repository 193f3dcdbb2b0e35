package cluster_test

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"minos/internal/demo"
	"minos/internal/index"
	"minos/internal/wire"
)

// TestQueryPlannedRouted: a planned query scattered over a 3-shard fleet
// must equal the same query against one unsharded server holding the same
// corpus — for plain conjunctions and for attribute-filtered ones.
func TestQueryPlannedRouted(t *testing.T) {
	ctx := context.Background()
	single, err := demo.Build(1<<15, 40)
	if err != nil {
		t.Fatalf("demo.Build: %v", err)
	}
	ref := wire.NewClient(&wire.LocalTransport{H: &wire.Handler{Srv: single.Server}})
	defer ref.Close()

	f, _, _ := buildFleet(t, 3, false)
	c := dialFleet(t, f)

	queries := []index.Query{
		{Terms: []string{"hospital"}},
		{Terms: []string{"hospital"}, Kind: index.KindAudio},
		{Terms: []string{"hospital"}, Kind: index.KindVisual},
		{Kind: index.KindAudio},
		{Terms: []string{"no", "such", "terms"}},
	}
	for _, q := range queries {
		want, _, err := ref.QueryPlannedCtx(ctx, q)
		if err != nil {
			t.Fatalf("ref QueryPlanned(%+v): %v", q, err)
		}
		got, _, err := c.QueryPlannedCtx(ctx, q)
		if err != nil {
			t.Fatalf("routed QueryPlanned(%+v): %v", q, err)
		}
		// Element-wise: one side may be a nil slice when nothing matches.
		if len(want) != len(got) {
			t.Fatalf("QueryPlanned(%+v) diverges:\nwant %v\ngot  %v", q, want, got)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("QueryPlanned(%+v) diverges at %d:\nwant %v\ngot  %v", q, i, want, got)
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("merged stream not strictly ascending at %d: %v", i, got)
			}
		}
	}
}

// TestQueryPlannedFailover: a planned query must survive a dead primary by
// failing over to the shard's WORM replica — the replica's content index is
// built from a bit-identical corpus, so the gathered result is unchanged.
func TestQueryPlannedFailover(t *testing.T) {
	ctx := context.Background()
	f, _, _ := buildFleet(t, 2, true)
	c := dialFleet(t, f)

	q := index.Query{Terms: []string{"hospital"}, Kind: index.KindVisual}
	before, _, err := c.QueryPlannedCtx(ctx, q)
	if err != nil {
		t.Fatalf("QueryPlanned before failover: %v", err)
	}
	if len(before) == 0 {
		t.Fatal("test query matched nothing; corpus drifted")
	}

	f.kill("shard0")
	after, _, err := c.QueryPlannedCtx(ctx, q)
	if err != nil {
		t.Fatalf("QueryPlanned after primary death: %v", err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("failover changed the result:\nbefore %v\nafter  %v", before, after)
	}
	if c.Failovers() == 0 {
		t.Fatal("no failovers recorded despite a dead primary")
	}
}

// TestQueryTermOnlyRouted: the term-only entry point is a planned query
// without predicates on every shard connection, so through a 3-shard fleet
// it still answers exactly what one unsharded server's own Query does — for
// no terms, one term and a conjunction — and inherits MaxQueryTerms.
func TestQueryTermOnlyRouted(t *testing.T) {
	ctx := context.Background()
	single, err := demo.Build(1<<15, 40)
	if err != nil {
		t.Fatalf("demo.Build: %v", err)
	}
	f, _, _ := buildFleet(t, 3, false)
	c := dialFleet(t, f)

	for _, terms := range [][]string{nil, {"hospital"}, {"lung", "shadow"}, {"absent"}} {
		got, _, err := c.QueryCtx(ctx, terms...)
		if err != nil {
			t.Fatalf("routed Query(%v): %v", terms, err)
		}
		if want := single.Server.Query(terms...); !slices.Equal(got, want) {
			t.Fatalf("routed Query(%v) = %v, want %v", terms, got, want)
		}
	}
	wide := make([]string, wire.MaxQueryTerms+1)
	for i := range wide {
		wide[i] = "lung"
	}
	if _, _, err := c.QueryCtx(ctx, wide...); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("routed %d-term query error = %v, want the MaxQueryTerms rejection", len(wide), err)
	}
}
