package searchidx

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/randutil"
)

// batchVocab is the shared vocabulary of the batch property documents:
// few enough words that posting lists span several blocks, with repeats
// inside a document exercising per-document term dedup.
var batchVocab = []string{"alpha", "beta", "gamma", "delta", "eps", "zeta"}

// batchDocs returns n documents with distinct random ids (not in id
// order, so inserts land mid-list as well as at the end), each carrying
// a few vocabulary words and one unique term (so the overlay folds), plus
// a static popularity per id.
func batchDocs(rng *randutil.RNG, n int) ([]Document, []float64) {
	ids := rng.Perm(3 * n)[:n]
	pops := make([]float64, 3*n)
	docs := make([]Document, n)
	for i, id := range ids {
		text := fmt.Sprintf("uniq%d", id)
		for w := 1 + rng.Intn(4); w > 0; w-- {
			text += " " + batchVocab[rng.Intn(len(batchVocab))]
		}
		docs[i] = Document{ID: id, Text: text}
		if rng.Bernoulli(0.7) {
			pops[id] = float64(1 + rng.Intn(1000))
		}
	}
	return docs, pops
}

// indexWithPops returns an empty index whose block bounds read pops.
func indexWithPops(pops []float64) *Index {
	ix := NewIndex()
	ix.SetPopFunc(func(id uint32) float64 { return pops[id] })
	return ix
}

// TestAddBatchMatchesAddProperty: random AddBatch splits of a document
// sequence build the same index as adding the documents one at a time —
// the same Retrieve and RetrievePruned output, the same posting lists
// and block bounds, and the same Len and Terms.
func TestAddBatchMatchesAddProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := randutil.New(seed)
		docs, pops := batchDocs(rng, 200+rng.Intn(900))
		one := indexWithPops(pops)
		for _, d := range docs {
			if err := one.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		batched := indexWithPops(pops)
		batches := 0
		for lo := 0; lo < len(docs); {
			hi := min(len(docs), lo+1+rng.Intn(3*deltaFoldThreshold))
			if err := batched.AddBatch(docs[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
			batches++
		}
		if got := batched.Snapshot().Epoch(); got != uint64(batches) {
			t.Errorf("seed %d: epoch %d after %d batches, want one per batch", seed, got, batches)
		}
		if batched.Len() != one.Len() || batched.Terms() != one.Terms() {
			t.Fatalf("seed %d: batched Len/Terms = %d/%d, per-document %d/%d",
				seed, batched.Len(), batched.Terms(), one.Len(), one.Terms())
		}
		terms := slices.Clone(batchVocab)
		for _, d := range docs {
			terms = append(terms, fmt.Sprintf("uniq%d", d.ID))
		}
		for _, term := range terms {
			assertSamePosting(t, fmt.Sprintf("seed %d term %q", seed, term), batched.Snapshot().postings(term), one.Snapshot().postings(term))
		}
		queries := []string{"alpha", "alpha beta", "gamma delta eps", "zeta alpha", fmt.Sprintf("uniq%d beta", docs[0].ID), "nosuch"}
		for _, q := range queries {
			if got, want := batched.Retrieve(q), one.Retrieve(q); !slices.Equal(got, want) {
				t.Fatalf("seed %d: Retrieve(%q) = %v, per-document %v", seed, q, got, want)
			}
			for _, threshold := range []float64{0, 300, 900} {
				got, gotSt := pruned(batched.Snapshot(), q, threshold)
				want, wantSt := pruned(one.Snapshot(), q, threshold)
				if !slices.Equal(got, want) || gotSt != wantSt {
					t.Fatalf("seed %d: RetrievePruned(%q, %v) = %v %+v, per-document %v %+v",
						seed, q, threshold, got, gotSt, want, wantSt)
				}
			}
		}
	}
}

// pruned runs RetrievePruned skipping every block whose bound is below
// threshold, and returns the emitted ids and the stats.
func pruned(s *Snapshot, query string, threshold float64) ([]uint32, PruneStats) {
	var ids []uint32
	st := s.RetrievePruned(query,
		func(upper float64) bool { return upper < threshold },
		func(block []uint32) { ids = append(ids, block...) })
	return ids, st
}

// assertSamePosting compares two posting lists' ids and the bounds of
// every block they cover (capacity beyond the list is not compared).
func assertSamePosting(t *testing.T, what string, got, want posting) {
	t.Helper()
	if !slices.Equal(got.ids, want.ids) {
		t.Fatalf("%s: ids %v, per-document %v", what, got.ids, want.ids)
	}
	for bi := 0; bi < nblocks(len(want.ids)); bi++ {
		if g, w := got.b.upper(bi), want.b.upper(bi); g != w {
			t.Fatalf("%s: block %d bound %v, per-document %v", what, bi, g, w)
		}
	}
}

// TestAddBatchRejectsWholeBatch: one invalid document rejects the whole
// batch, leaving the index, its snapshot and its epoch unchanged, and
// the batch's valid documents can be indexed afterwards.
func TestAddBatchRejectsWholeBatch(t *testing.T) {
	ix := NewIndex()
	if err := ix.AddBatch([]Document{{ID: 1, Text: "old doc"}, {ID: 2, Text: "old page"}}); err != nil {
		t.Fatal(err)
	}
	good := []Document{{ID: 10, Text: "fresh doc"}, {ID: 11, Text: "fresh page"}}
	cases := []struct {
		name string
		bad  Document
	}{
		{"duplicate in batch", Document{ID: 10, Text: "fresh again"}},
		{"duplicate of index", Document{ID: 2, Text: "fresh copy"}},
		{"no terms", Document{ID: 12, Text: " ,;! "}},
		{"negative id", Document{ID: -1, Text: "fresh negative"}},
	}
	// A non-constant conversion, so the test compiles where int is 32
	// bits (there no id above the uint32 range exists).
	var maxU32 int64 = math.MaxUint32
	if int64(int(maxU32)) == maxU32 {
		cases = append(cases, struct {
			name string
			bad  Document
		}{"id above uint32 range", Document{ID: int(maxU32) + 1, Text: "fresh huge"}})
	}
	for _, c := range cases {
		before := ix.Snapshot()
		if err := ix.AddBatch(append(slices.Clone(good), c.bad)); err == nil {
			t.Fatalf("%s: batch accepted", c.name)
		}
		if ix.Snapshot() != before {
			t.Fatalf("%s: rejected batch published a snapshot (epoch %d -> %d)", c.name, before.Epoch(), ix.Snapshot().Epoch())
		}
		if ix.Len() != 2 || ix.Terms() != 3 {
			t.Fatalf("%s: rejected batch changed Len/Terms to %d/%d, want 2/3", c.name, ix.Len(), ix.Terms())
		}
		if got := ix.Retrieve("fresh"); got != nil {
			t.Fatalf("%s: rejected batch left %v retrievable", c.name, got)
		}
	}
	before := ix.Snapshot()
	if err := ix.AddBatch(nil); err != nil || ix.Snapshot() != before {
		t.Fatalf("empty batch: err %v, published a snapshot: %v", err, ix.Snapshot() != before)
	}
	if err := ix.AddBatch(good); err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
	if got := ix.Retrieve("fresh"); !slices.Equal(got, []int{10, 11}) {
		t.Fatalf("Retrieve(fresh) = %v, want [10 11]", got)
	}
}
