package index

import (
	"math/rand"
	"testing"

	"minos/internal/object"
)

// memtableStore holds n testDocs, unsealed, added in the given order of i.
func memtableStore(tb testing.TB, order []int) *Store {
	tb.Helper()
	s := NewStore(Config{})
	var d Doc
	for _, i := range order {
		testDoc(i, &d)
		if !s.Add(&d) {
			tb.Fatalf("doc %d rejected", i)
		}
	}
	if st := s.Stats(); st.Segments != 0 || st.Docs != len(order) {
		tb.Fatalf("store sealed or short: %+v", st)
	}
	return s
}

// BenchmarkSearchMemtableAll answers queries that match every doc of a
// near-full memtable whose ids arrived in shuffled order: the result sort
// is the whole cost (it was a quadratic insertion sort before PR 16).
func BenchmarkSearchMemtableAll(b *testing.B) {
	s := memtableStore(b, rand.New(rand.NewSource(1)).Perm(4095))
	for name, q := range map[string]Query{
		"attrs": {Kind: KindVisual},
		"term":  {Terms: []string{"alpha"}},
	} {
		b.Run(name, func(b *testing.B) {
			dst := make([]object.ID, 0, 4096)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = s.Search(q, dst[:0])
			}
		})
	}
}
