package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a tail is reported at, highest first,
// in tenths of a percent so that the sample arithmetic is exact.
var tailLevels = []int{999, 990, 950, 900, 750}

// tailPercentile returns the highest percentile in tailLevels that has at
// least ten samples beyond its nearest-rank position in a sample of n,
// or 100 (the maximum) when no level qualifies.
func tailPercentile(n int) float64 {
	for _, l := range tailLevels {
		rank := (l*n + 999) / 1000 // ceil(l/1000 · n)
		if n-rank >= 10 {
			return float64(l) / 10
		}
	}
	return 100
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9)) // 99.9/100 is inexact
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of xs (mean of the middle two for an even
// count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latency summarizes one set of timings in milliseconds: the median and
// the tail at the highest percentile the sample supports.
type latency struct {
	N      int
	P50    float64
	Tail   float64
	TailAt float64 // the percentile Tail was taken at
}

func summarize(ms []float64) latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	at := tailPercentile(len(s))
	return latency{N: len(s), P50: percentile(s, 50), Tail: percentile(s, at), TailAt: at}
}

func (l latency) String() string {
	return fmt.Sprintf("p50 %.3f ms, p%g %.3f ms (n=%d)", l.P50, l.TailAt, l.Tail, l.N)
}

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }
func durUS(d time.Duration) float64 { return float64(d) / 1e3 }

// opCounts is the sent/succeeded/failed ledger of one operation type.
// Every refused or failed attempt counts, including attempts a client
// later retried.
type opCounts struct {
	Sent, OK, Failed int
}

func (c *opCounts) add(o opCounts) {
	c.Sent += o.Sent
	c.OK += o.OK
	c.Failed += o.Failed
}

// statsDelta is the change in the service's monotonic /v1/stats
// counters between two samples.
type statsDelta struct {
	ImpressionsApplied, ClicksApplied        uint64
	CacheHits, CacheMisses                   uint64
	BlocksSkipped, ZACandidates              uint64
	Feedback429, Feedback503, RateLimited429 uint64
	WALCommits, WALSyncs, WALRecords         uint64
}

// statsCounters is the subset of the /v1/stats body the benchmark reads.
type statsCounters struct {
	ImpressionsApplied uint64       `json:"impressions_applied"`
	ClicksApplied      uint64       `json:"clicks_applied"`
	QueryCacheHits     uint64       `json:"query_cache_hits"`
	QueryCacheMisses   uint64       `json:"query_cache_misses"`
	BlocksSkipped      uint64       `json:"blocks_skipped"`
	ZACandidates       uint64       `json:"za_candidates"`
	Feedback429        uint64       `json:"feedback_429"`
	Feedback503        uint64       `json:"feedback_503"`
	RateLimited429     uint64       `json:"rate_limited_429"`
	WAL                *walCounters `json:"wal"`
}

type walCounters struct {
	Commits uint64 `json:"commits"`
	Syncs   uint64 `json:"syncs"`
	Records uint64 `json:"records"`
}

// sub returns b − a counter by counter. A counter that went backwards
// (the service restarted between samples) is an error: the deltas would
// be meaningless.
func (b statsCounters) sub(a statsCounters) (statsDelta, error) {
	var bad []string
	d := func(name string, x, y uint64) uint64 {
		if x < y {
			bad = append(bad, name)
			return 0
		}
		return x - y
	}
	var aw, bw [3]uint64
	if a.WAL != nil {
		aw = [3]uint64{a.WAL.Commits, a.WAL.Syncs, a.WAL.Records}
	}
	if b.WAL != nil {
		bw = [3]uint64{b.WAL.Commits, b.WAL.Syncs, b.WAL.Records}
	}
	out := statsDelta{
		ImpressionsApplied: d("impressions_applied", b.ImpressionsApplied, a.ImpressionsApplied),
		ClicksApplied:      d("clicks_applied", b.ClicksApplied, a.ClicksApplied),
		CacheHits:          d("query_cache_hits", b.QueryCacheHits, a.QueryCacheHits),
		CacheMisses:        d("query_cache_misses", b.QueryCacheMisses, a.QueryCacheMisses),
		BlocksSkipped:      d("blocks_skipped", b.BlocksSkipped, a.BlocksSkipped),
		ZACandidates:       d("za_candidates", b.ZACandidates, a.ZACandidates),
		Feedback429:        d("feedback_429", b.Feedback429, a.Feedback429),
		Feedback503:        d("feedback_503", b.Feedback503, a.Feedback503),
		RateLimited429:     d("rate_limited_429", b.RateLimited429, a.RateLimited429),
		WALCommits:         d("wal.commits", bw[0], aw[0]),
		WALSyncs:           d("wal.syncs", bw[1], aw[1]),
		WALRecords:         d("wal.records", bw[2], aw[2]),
	}
	if len(bad) > 0 {
		return out, fmt.Errorf("stats counters went backwards: %v", bad)
	}
	return out, nil
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
