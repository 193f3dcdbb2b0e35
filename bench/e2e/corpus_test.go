package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// fingerprint builds the stack for (seed, shape) and hashes everything the
// program was fed and everything the verifier will hold it to: each shard
// archive's bytes, the index shape, and the expected-answer tables.
func fingerprint(t *testing.T, seed uint64, shape corpusShape) string {
	t.Helper()
	c, err := generate(seed, shape)
	if err != nil {
		t.Fatal(err)
	}
	st, err := buildStack(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.expect()
	h := sha256.New()
	for i, srv := range st.servers {
		var img bytes.Buffer
		if err := srv.Archiver().Device().WriteImage(&img); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "shard %d archive %x index %+v\n", i, sha256.Sum256(img.Bytes()), srv.ContentIndex().Stats())
	}
	for _, o := range c.Objects {
		fmt.Fprintf(h, "%d mini %x pcm %v\n", o.ID, st.miniHash[o.ID], c.PCM[o.ID])
	}
	for _, q := range c.Battery {
		fmt.Fprintf(h, "%q %d\n", q.Q, q.Hits)
	}
	for i, o := range c.Pubs {
		fmt.Fprintf(h, "pub %d shard %d %q\n", o.ID, c.PubShard[i], o.Title)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestCorpusIsAFunctionOfSeedAndShape(t *testing.T) {
	shape := corpusShape{Objects: 96, SpokenEvery: 4, SpokenWords: 8, SynthDocs: 2000, Battery: true, Publishes: 16}
	a, b := fingerprint(t, 7, shape), fingerprint(t, 7, shape)
	if a != b {
		t.Errorf("same seed, different corpus: %s vs %s", a, b)
	}
	if c := fingerprint(t, 8, shape); c == a {
		t.Errorf("seeds 7 and 8 gave the same corpus %s", a)
	}
}

func TestGroupsHaveExactSizes(t *testing.T) {
	shape, err := shapeFor("browse-warm", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	shape.SpokenEvery = 0 // text only: this checks the arithmetic, not the synthesizer
	c, err := generate(1, shape)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < groups; g++ {
		if n := len(c.Members[fmt.Sprintf("grp%d", g)]); n != 64 {
			t.Errorf("grp%d has %d members, want 64", g, n)
		}
	}
	for h := 0; h < 2; h++ {
		if n := len(c.Members[fmt.Sprintf("half%d", h)]); n != 256 {
			t.Errorf("half%d has %d members, want 256", h, n)
		}
	}
}

func TestPublishStreamAlternatesShards(t *testing.T) {
	c, err := generate(3, corpusShape{Publishes: 40})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range c.Pubs {
		if c.PubShard[i] != i%shards || c.Ring.Owner(o.ID) != c.PubShard[i] {
			t.Fatalf("publish %d (id %d): shard %d, ring owner %d", i, o.ID, c.PubShard[i], c.Ring.Owner(o.ID))
		}
	}
}
