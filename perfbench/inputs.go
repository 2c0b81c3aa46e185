package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/serve"
)

// Inputs are a pure function of the run's seed: operation i of a stream
// always draws the same values, whichever connection sends it.

// Streams keep the draws of different uses independent.
const (
	streamRank uint64 = iota + 1
	streamVisit
	streamBatch
	streamProbe
	streamQuality
	streamWarm
	streamLadder
)

// draw returns a uniform value in [0,1) fixed by (seed, stream, i, j).
func draw(seed, stream uint64, i, j int) float64 {
	x := seed*0x9e3779b97f4a7c15 ^ stream<<56 ^ uint64(i)<<20 ^ uint64(j)
	// splitmix64 finalizer
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// inputs generates every workload's requests for one seed.
type inputs struct {
	seed    uint64
	queries []string  // distinct topic-word queries, in seeded popularity order
	cdf     []float64 // Zipf(1.1) cumulative weights over queries
}

const zipfS = 1.1

func newInputs(seed uint64) *inputs {
	seen := map[string]bool{}
	var qs []string
	for _, t := range topics {
		for _, w := range strings.Fields(t) {
			if !seen[w] {
				seen[w] = true
				qs = append(qs, w)
			}
		}
	}
	// Seeded shuffle: which word is the hottest query depends on the seed.
	for i := len(qs) - 1; i > 0; i-- {
		j := int(draw(seed, streamRank, -1, i) * float64(i+1))
		qs[i], qs[j] = qs[j], qs[i]
	}
	in := &inputs{seed: seed, queries: qs}
	sum := 0.0
	for k := range qs {
		sum += math.Pow(float64(k+1), -zipfS)
		in.cdf = append(in.cdf, sum)
	}
	for k := range in.cdf {
		in.cdf[k] /= sum
	}
	return in
}

// query draws a topic word Zipf-wise.
func (in *inputs) query(u float64) string {
	k := sort.SearchFloat64s(in.cdf, u)
	if k >= len(in.queries) {
		k = len(in.queries) - 1
	}
	return in.queries[k]
}

const (
	topN  = 10    // results per rank request
	users = 10000 // distinct experiment units
)

// rankReq is operation i of a rank stream: half browse (empty query),
// half a topic-word query.
func (in *inputs) rankReq(stream uint64, i int) serve.RankRequest {
	req := serve.RankRequest{N: topN, Unit: fmt.Sprintf("u%d", int(draw(in.seed, stream, i, 0)*users))}
	if draw(in.seed, stream, i, 1) < 0.5 {
		req.Query = in.query(draw(in.seed, stream, i, 2))
	}
	return req
}

// attentionSlot samples the visited slot of an n-slot result list from
// the paper's attention law: slot i is visited with weight i^(-3/2).
func attentionSlot(n int, u float64) int {
	total := 0.0
	for i := 1; i <= n; i++ {
		total += math.Pow(float64(i), -1.5)
	}
	acc := 0.0
	for i := 1; i <= n; i++ {
		acc += math.Pow(float64(i), -1.5) / total
		if u < acc {
			return i
		}
	}
	return n
}

// quality is page id's intrinsic quality in [0,1): the probability that
// a user who visits it clicks.
func (in *inputs) quality(id int) float64 {
	u := draw(in.seed, streamQuality, id, 0)
	return u * u
}

// visitFeedback turns the results one user was shown into feedback: an
// impression for every shown slot, and a click on the slot visited per
// the attention law with the page's quality.
func (in *inputs) visitFeedback(i int, shown []serve.RankedItem, arm, unit string) []serve.Event {
	visited := attentionSlot(len(shown), draw(in.seed, streamVisit, i, 0))
	events := make([]serve.Event, 0, len(shown))
	for _, it := range shown {
		e := serve.Event{Page: it.ID, Slot: it.Slot, Impressions: 1, Arm: arm, Unit: unit}
		if it.Slot == visited && draw(in.seed, streamVisit, i, 1) < in.quality(it.ID) {
			e.Clicks = 1
		}
		events = append(events, e)
	}
	return events
}

// batchEvents is feedback batch i of the batch stream: size events over
// pages [0, pages), each one impression with a click one time in ten.
func (in *inputs) batchEvents(i, size, pages int) []serve.Event {
	events := make([]serve.Event, size)
	for j := range events {
		e := serve.Event{
			Page:        int(draw(in.seed, streamBatch, i, 3*j) * float64(pages)),
			Slot:        1 + int(draw(in.seed, streamBatch, i, 3*j+1)*topN),
			Impressions: 1,
		}
		if draw(in.seed, streamBatch, i, 3*j+2) < 0.1 {
			e.Clicks = 1
		}
		events[j] = e
	}
	return events
}
