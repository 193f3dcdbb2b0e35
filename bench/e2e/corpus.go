package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"minos/internal/cluster"
	"minos/internal/demo"
	img "minos/internal/image"
	"minos/internal/index"
	"minos/internal/object"
)

// The corpus generator: everything the program under test is fed — the
// published objects, the synthetic index load, the query battery and the
// publish stream — is a pure function of (seed, workload, window). The
// program never sees the seed or the workload name, only these inputs.

const (
	shards       = 2
	firstID      = 1000       // real objects are firstID+i
	firstPubID   = 5_000_000  // publish-stream objects
	firstSynthID = 10_000_000 // synthetic index docs: firstSynthID*(shard+1)+i
	vocabSize    = 2000
	groups       = 8   // grpN terms: object i is in grp(i%8)
	halfBlock    = 128 // halfN terms: object i is in half((i/128)%2)
	publishRate  = 300 // publish-browse: Server.Publish calls per second
	batterySize  = 256
	memtableDocs = 4096 // index.Config default seal threshold
	sealedBefore = 7    // publish-browse: sealed segments per shard at start
)

// rng is splitmix64: tiny, seedable, and stable across Go releases.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// sub derives an independent stream, so object i's content does not depend
// on how many draws object i-1 made.
func (r rng) sub(salt uint64) *rng {
	c := rng{s: r.s ^ (salt+1)*0xD1B54A32D192ED03}
	c.next()
	return &c
}

// corpusShape is what a workload asks of the generator.
type corpusShape struct {
	Objects     int
	SpokenEvery int // every Nth member of each group is an audio-mode object (0 = none)
	SpokenWords int
	// SynthDocs adds that many demo.SynthDoc documents to each shard's
	// index; StoreDocs instead tops each shard's index up to exactly that
	// many documents, which fixes where the next seal falls.
	SynthDocs int
	StoreDocs int
	Battery   bool
	Publishes int
}

// shapeFor sizes a workload's corpus. sealAt and total matter only to
// publish-browse: how long after the writer starts each shard's memtable
// should seal, and how long the writer runs.
func shapeFor(workload string, sealAt, total time.Duration) (corpusShape, error) {
	switch workload {
	case "browse-warm":
		return corpusShape{Objects: 512, SpokenEvery: 16, SpokenWords: 16}, nil
	case "browse-cold", "open-view":
		return corpusShape{Objects: 4096, SpokenEvery: 16, SpokenWords: 16}, nil
	case "query-planned":
		return corpusShape{Objects: 512, SpokenEvery: 16, SpokenWords: 16, SynthDocs: 100_000, Battery: true}, nil
	case "publish-browse":
		// Each shard takes every other publish. Its memtable starts just
		// far enough below the seal threshold that the seal (and the
		// 8-segment merge it triggers) lands at sealAt. One spare second
		// of writes feeds the ladder's publish rung.
		lead := int(float64(publishRate/shards) * sealAt.Seconds())
		lead = max(1, min(lead, memtableDocs-1))
		return corpusShape{
			Objects: 512, SpokenEvery: 16, SpokenWords: 16,
			StoreDocs: sealedBefore*memtableDocs + memtableDocs - lead,
			Publishes: int(float64(publishRate)*total.Seconds()) + publishRate,
		}, nil
	case "voice-stream":
		return corpusShape{Objects: 32, SpokenEvery: 1, SpokenWords: 100}, nil
	}
	return corpusShape{}, fmt.Errorf("unknown workload %q", workload)
}

// query is one content query with its expected result size.
type query struct {
	Q    string      // as sent in ?q=
	IQ   index.Query // as handed to direct calls
	Hits int         // filled by construction, or from SearchNaive at set-up
}

// pcmSum identifies a spoken object's PCM stream.
type pcmSum struct {
	Bytes uint64
	Hash  uint64
}

type corpus struct {
	Shape   corpusShape
	Ring    *cluster.Ring
	Objects []*object.Object // in publish order
	Visual  []object.ID
	Spoken  []object.ID
	// Members maps each group term (grpN, halfN) to its ids, ascending —
	// the order a query returns them in.
	Members map[string][]object.ID
	Battery []query
	// Pubs is the publish stream in due order; PubShard[i] owns Pubs[i].
	// Shards strictly alternate, so each sees exactly half the rate.
	Pubs     []*object.Object
	PubShard []int
	// SynthSeed[s] seeds shard s's synthetic index documents.
	SynthSeed [shards]uint64
	PCM       map[object.ID]pcmSum
}

func shardIDs() []int {
	ids := make([]int, shards)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

var spokenTopics = []string{"lung", "heart", "archive", "optical", "voice", "map", "hospital", "subway"}

func groupTerms(i int) (grp, half string) {
	return fmt.Sprintf("grp%d", i%groups), fmt.Sprintf("half%d", (i/halfBlock)%2)
}

// generate builds the corpus for one (seed, shape).
func generate(seed uint64, shape corpusShape) (*corpus, error) {
	root := rng{s: seed}
	c := &corpus{
		Shape:   shape,
		Ring:    cluster.NewRing(shardIDs(), cluster.DefaultVnodes),
		Members: map[string][]object.ID{},
		PCM:     map[object.ID]pcmSum{},
	}
	for s := range c.SynthSeed {
		c.SynthSeed[s] = root.sub(uint64(0x5EED + s)).next()
	}
	zipf := newZipf(vocabSize)
	for i := 0; i < shape.Objects; i++ {
		r := root.sub(uint64(i))
		id := object.ID(firstID + i)
		grp, half := groupTerms(i)
		date := fmt.Sprintf("%04d-%02d-%02d", 1980+r.intn(10), 1+r.intn(12), 1+r.intn(28))
		j := i / groups // position within the group
		var o *object.Object
		var err error
		switch {
		case shape.SpokenEvery > 0 && j%shape.SpokenEvery == shape.SpokenEvery-1:
			o, err = demo.SpokenObject(id, spokenTopics[r.intn(len(spokenTopics))], shape.SpokenWords, r.intn(1<<30), 8000)
			if err == nil {
				o.Attrs = map[string]string{"date": date, "groups": grp + " " + half}
				c.Spoken = append(c.Spoken, id)
				c.PCM[id] = sumPCM(o.PrimaryVoice().Samples)
			}
		default:
			b := object.NewBuilder(id, fmt.Sprintf("Report %d", i), object.Visual).
				Text(docMarkup(r, zipf, "w", 120+r.intn(61))).
				Attr("date", date).
				Attr("groups", grp+" "+half)
			if j%8 == 3 {
				b.Image(lineGraphic(r, fmt.Sprintf("fig%d", i)))
			}
			o, err = b.Build()
			c.Visual = append(c.Visual, id)
		}
		if err != nil {
			return nil, fmt.Errorf("corpus: object %d: %w", id, err)
		}
		c.Objects = append(c.Objects, o)
		c.Members[grp] = append(c.Members[grp], id)
		c.Members[half] = append(c.Members[half], id)
	}
	if shape.Battery {
		c.Battery = battery(root.sub(0xBA77), c.SynthSeed, shape.SynthDocs)
	}
	if err := c.genPublishes(root.sub(0x9B), zipf); err != nil {
		return nil, err
	}
	return c, nil
}

// groupQuery is the query for one group term; its hit count is known by
// construction.
func (c *corpus) groupQuery(term string) query {
	return query{Q: term, IQ: index.Query{Terms: []string{term}}, Hits: len(c.Members[term])}
}

// docMarkup writes a visual text document of n Zipf-distributed words in
// the formatter's tag language (same shape as demo.FillerMarkup).
func docMarkup(r *rng, z *zipf, prefix string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".title Notes on %s%04d\n.chapter Summary\n", prefix, z.draw(r))
	for w := 0; w < n; {
		if w > 0 && w%60 == 0 {
			b.WriteString("\n.chapter Continued\n")
		} else if w > 0 && w%25 == 0 {
			b.WriteString("\n\n")
		}
		fmt.Fprintf(&b, "%s%04d", prefix, z.draw(r))
		w++
		if w%9 == 0 {
			b.WriteString(". ")
		} else {
			b.WriteString(" ")
		}
	}
	b.WriteString(".\n")
	return b.String()
}

// lineGraphic draws a small seeded line-graphic image: a frame, a few
// polylines and circles.
func lineGraphic(r *rng, name string) *img.Image {
	const w, h = 192, 128
	im := img.New(name, w, h)
	im.Add(img.Graphic{Shape: img.ShapePolyline, Points: []img.Point{{X: 0, Y: 0}, {X: w - 1, Y: 0}, {X: w - 1, Y: h - 1}, {X: 0, Y: h - 1}, {X: 0, Y: 0}}})
	for k := 0; k < 5; k++ {
		pts := make([]img.Point, 3+r.intn(3))
		for p := range pts {
			pts[p] = img.Point{X: r.intn(w), Y: r.intn(h)}
		}
		im.Add(img.Graphic{Shape: img.ShapePolyline, Points: pts})
	}
	for k := 0; k < 2; k++ {
		im.Add(img.Graphic{Shape: img.ShapeCircle, Points: []img.Point{{X: 20 + r.intn(w-40), Y: 20 + r.intn(h-40)}}, Radius: 4 + r.intn(12)})
	}
	return im
}

// battery is the query-planned mix: half selective 3-term conjunctions,
// a quarter single common terms (big id lists), a quarter common term +
// kind:audio + a 4-year date range. The two common-term quarters use every
// common term exactly once each (in seeded order) and every start year
// equally often, so the battery's total work barely depends on the seed.
func battery(r *rng, synthSeed [shards]uint64, docs int) []query {
	const quarter = batterySize / 4 // = demo.SynthCommonVocab
	var single, dated [quarter]int
	for i := range single {
		single[i], dated[i] = i, i
	}
	for i := quarter - 1; i > 0; i-- {
		j, k := r.intn(i+1), r.intn(i+1)
		single[i], single[j] = single[j], single[i]
		dated[i], dated[k] = dated[k], dated[i]
	}
	out := make([]query, 0, batterySize)
	for k := 0; k < batterySize; k++ {
		var q string
		switch k % 4 {
		case 0, 1:
			sq := demo.SynthQuery(synthSeed[k%shards], r.intn(1<<20), docs)
			q = strings.Join(sq.Terms, " ")
		case 2:
			q = fmt.Sprintf("common%02d", single[k/4])
		default:
			from := 1980 + (k/4)%6
			q = fmt.Sprintf("common%02d kind:audio after:%04d-01-01 before:%04d-12-28", dated[k/4], from, from+3)
		}
		iq, err := index.ParseQuery(q)
		if err != nil {
			panic(err) // the generator wrote q; a parse failure is a bug here
		}
		out = append(out, query{Q: q, IQ: iq, Hits: -1})
	}
	return out
}

// genPublishes pre-builds the publish stream. Ids are taken upward from
// firstPubID, dealt alternately to the shard that owns them, so routing is
// the ring's (as demo.BuildSharded does) and each shard's rate is exact.
// Text uses a pub-prefixed vocabulary so group hit counts never move;
// every document carries "pubmark" so the acknowledged count is checkable
// with one query.
func (c *corpus) genPublishes(r *rng, z *zipf) error {
	next := object.ID(firstPubID)
	var waiting [shards][]object.ID
	for k := 0; k < c.Shape.Publishes; k++ {
		want := k % shards
		for len(waiting[want]) == 0 {
			own := c.Ring.Owner(next)
			waiting[own] = append(waiting[own], next)
			next++
		}
		id := waiting[want][0]
		waiting[want] = waiting[want][1:]
		o, err := object.NewBuilder(id, fmt.Sprintf("Pub %d", k), object.Visual).
			Text(docMarkup(r.sub(uint64(k)), z, "pubw", 120+r.intn(61))).
			Attr("date", "1986-05-28").
			Attr("groups", "pubmark").
			Build()
		if err != nil {
			return fmt.Errorf("corpus: publish %d: %w", k, err)
		}
		c.Pubs = append(c.Pubs, o)
		c.PubShard = append(c.PubShard, want)
	}
	return nil
}

// synthDoc fills d with shard s's synthetic document i, on an id range
// disjoint from every real object and from the other shard.
func (c *corpus) synthDoc(s, i int, d *index.Doc) {
	demo.SynthDoc(c.SynthSeed[s], i, d)
	d.ID = object.ID(firstSynthID*(s+1) + i)
}

func sumPCM(samples []int16) pcmSum {
	h := fnv.New64a()
	var b [2]byte
	for _, v := range samples {
		binary.LittleEndian.PutUint16(b[:], uint16(v))
		h.Write(b[:])
	}
	return pcmSum{Bytes: uint64(2 * len(samples)), Hash: h.Sum64()}
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1).
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / float64(k+1)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	u := float64(r.next()>>11) / (1 << 53)
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}
