package main

import (
	"fmt"
	"math"
)

// The synthetic corpus the benchmark's in-process corpora are built
// from, mirroring cmd/shuffledeckd's bootstrap so that they hold exactly
// what the daemon holds.

// topics is the daemon's bootstrap vocabulary. The traced run's
// rank-coherence check against a live daemon fails if the two drift.
var topics = []string{
	"go concurrency patterns",
	"search ranking randomization",
	"distributed systems consensus",
	"database index structures",
	"web crawler politeness",
	"information retrieval evaluation",
	"page quality popularity bias",
	"http api design",
}

// page returns page i of an n-page bootstrap: topics round-robin, and a
// Zipf-shaped initial popularity except for the evenly spread tenth of
// pages that start at zero awareness (the daemon's default -fresh 0.1).
func page(i, n int) (text string, popularity float64) {
	const fresh = 0.1
	text = fmt.Sprintf("%s page%d", topics[i%len(topics)], i)
	if math.Round(fresh*float64(i+1)) <= math.Round(fresh*float64(i)) {
		popularity = float64(n) / float64(i+1)
	}
	return text, popularity
}
