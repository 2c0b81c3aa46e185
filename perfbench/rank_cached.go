package main

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

// rank-cached: an in-memory daemon bootstrapped with 50k pages serves
// read-only rank traffic. Without feedback no shard epoch moves, so
// after warm-up every query is a cache hit: the workload isolates HTTP,
// JSON, cache-hit and merge costs, and its set-up exercises Corpus.Add.
const (
	rankPages = 50000
	rankRate  = 1000 // open-loop rank requests per second
)

func runRankCached(r *run) error {
	d, url, err := r.bootDaemon(func(int) ([]string, string, error) {
		return []string{"-pages", strconv.Itoa(rankPages)}, "", nil
	})
	if err != nil {
		return err
	}
	defer d.killIfRunning()
	clients := []*http.Client{newClient(), newClient()}
	rankOp := func(c *http.Client, stream uint64, i int) error {
		sp := r.tr.begin("http.rank", -1, stream<<40|uint64(i))
		_, err := rank(c, url, r.in.rankReq(stream, i), rankPages)
		r.tr.end(sp)
		r.led.record("rank", err)
		return err
	}
	warm := runClosed(time.Second, 2, func(c, i int) (int, bool) {
		return 1, rankOp(clients[c], streamWarm, 2*i+c) == nil
	}, nil)
	r.logf("warm-up: %d ranks, %d failed", warm.OK, warm.Bad)

	s0, err := getStats(url)
	if err != nil {
		return err
	}
	var hs *healthSampler
	if r.traced() {
		hs = sampleHealth([]string{url})
	}
	openFor := r.seconds / 4
	open := summarizeOpen(rankRate, openFor, runOpen(rankRate, openFor, 2, func(conn, i int) bool {
		return rankOp(clients[conn], streamRank, i) == nil
	}, func(int) { r.led.record("rank", errAbandoned) }))
	r.reportOpen("rank", open)
	r.noteLate(open)
	closed, err := r.measureClosed(clients, url, rankPages, r.seconds-openFor, func(c, i int) (int, bool) {
		return 1, rankOp(clients[c], streamRank, 1<<30+2*i+c) == nil
	})
	if err != nil {
		return err
	}
	r.logf("rank closed loop, 2 clients: %d ranks, %d failed, latency %v; windowed %v", closed.OK, closed.Bad, closed.Latency, closed.Win)
	if hs != nil {
		hs.finish()
	}
	s1, err := getStats(url)
	if err != nil {
		return err
	}
	delta, err := s1.sub(s0)
	if err != nil {
		r.fail("%v", err)
	}
	r.logf("cache: %d hits, %d misses over the measured phases", delta.CacheHits, delta.CacheMisses)
	r.checkSeededRepeat(clients, url, rankPages)

	if r.traced() {
		r.liveLayers(delta, hs, 0, 0)
		// Without feedback the daemon's corpus is exactly the bootstrap,
		// so the ladder's in-process corpus must rank like it.
		if err := r.ladder(ladderConfig{pages: rankPages, daemonURL: url}); err != nil {
			return err
		}
	}
	return r.stopDaemon(d)
}

// checkSeededRepeat sends the same seeded rank requests over both
// connections: the replies must be identical (Kendall tau 1).
func (r *run) checkSeededRepeat(clients []*http.Client, url string, pages int) {
	for i := 0; i < 20; i++ {
		req := r.in.rankReq(streamProbe, i)
		seed := uint64(i + 1)
		req.Seed = &seed
		var lists [2][]int
		for c := range clients {
			resp, err := rank(clients[c], url, req, pages)
			r.led.record("rank.seeded", err)
			if err != nil {
				r.fail("seeded rank %d: %v", i, err)
				return
			}
			lists[c] = ids(resp.Results)
		}
		if tau := loadgen.KendallTau(lists[0], lists[1]); tau != 1 {
			r.fail("seeded rank %d differs between connections: tau %v (%v vs %v)", i, tau, lists[0], lists[1])
			return
		}
	}
}

func ids(items []serve.RankedItem) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}
