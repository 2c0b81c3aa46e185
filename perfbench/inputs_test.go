package main

import (
	"reflect"
	"testing"

	"repro/internal/serve"
)

func generate(seed uint64) (ranks []serve.RankRequest, batches [][]serve.Event, quality []float64, visits [][]serve.Event) {
	in := newInputs(seed)
	shown := make([]serve.RankedItem, topN)
	for i := range shown {
		shown[i] = serve.RankedItem{Slot: i + 1, ID: 10 * i}
	}
	for i := 0; i < 200; i++ {
		ranks = append(ranks, in.rankReq(streamRank, i))
		batches = append(batches, in.batchEvents(i, 8, 1000))
		quality = append(quality, in.quality(i))
		visits = append(visits, in.visitFeedback(i, shown, "a", "u"))
	}
	return
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	r1, b1, q1, v1 := generate(7)
	r2, b2, q2, v2 := generate(7)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(q1, q2) || !reflect.DeepEqual(v1, v2) {
		t.Fatal("the same seed generated different inputs")
	}
	r3, b3, _, _ := generate(8)
	if reflect.DeepEqual(r1, r3) || reflect.DeepEqual(b1, b3) {
		t.Fatal("different seeds generated the same inputs")
	}
}

func TestRankMixIsHalfBrowseAndZipfQueries(t *testing.T) {
	in := newInputs(3)
	counts := map[string]int{}
	browse := 0
	const n = 20000
	for i := 0; i < n; i++ {
		req := in.rankReq(streamRank, i)
		if req.N != topN || req.Unit == "" {
			t.Fatalf("request %d: %+v", i, req)
		}
		if req.Query == "" {
			browse++
		} else {
			counts[req.Query]++
		}
	}
	if browse < n*45/100 || browse > n*55/100 {
		t.Errorf("%d of %d requests browse, want about half", browse, n)
	}
	if c0, cLast := counts[in.queries[0]], counts[in.queries[len(in.queries)-1]]; c0 < 10*cLast {
		t.Errorf("hottest query drawn %d times, coldest %d: not Zipf-shaped", c0, cLast)
	}
}

func TestAttentionLawFavorsTopSlots(t *testing.T) {
	hits := make([]int, topN+1)
	for i := 0; i < 10000; i++ {
		hits[attentionSlot(topN, draw(1, streamVisit, i, 0))]++
	}
	if hits[0] != 0 {
		t.Fatalf("slot 0 visited")
	}
	// Slot 1 carries 1/H(10, 1.5) ≈ 0.50 of the attention, slot 2 2^-1.5 of that.
	if hits[1] < 4700 || hits[1] > 5300 || hits[2] < hits[1]/4 || hits[2] > hits[1]/2 {
		t.Errorf("slot visits %v", hits)
	}
}
