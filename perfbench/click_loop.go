package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// click-loop: a WAL-logged daemon runs the paper's user loop. Each user
// ranks, visits one result drawn from the i^(-3/2) attention law, clicks
// with the page's quality, and posts the impressions and click as JSON
// feedback. Every feedback batch bumps shard epochs, so queries miss the
// cache and take the block-max pruned path while WAL group commit runs
// underneath: reads beside writes. The WAL does not fsync (-fsync none):
// the shared disk's fsync latency varied by 2x within an hour, and the
// ladder's write-path rungs time the synced commit instead (README).
//
// Its corpus is as large as rank-cached's. A durable boot writes and
// syncs the same 18 MB of store files at any corpus size; with 20k pages
// the median boot of one run ranged 0.59–1.21 s over ten runs and moved
// by a third between two sets of ten, while at 50k pages indexing
// dominates the boot.
const (
	clickPages = 50000
	clickRate  = 400 // open-loop user visits per second
)

func runClickLoop(r *run) error {
	var dataDir string
	d, url, err := r.bootDaemon(func(k int) ([]string, string, error) {
		dataDir = filepath.Join(r.work, fmt.Sprintf("data-%d", k))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, "", err
		}
		return []string{"-pages", strconv.Itoa(clickPages), "-data", dataDir, "-fsync", "none"}, dataDir, nil
	})
	if err != nil {
		return err
	}
	defer d.killIfRunning()
	clients := []*http.Client{newClient(), newClient()}
	var rankLat, fbLat durations
	// visit runs user i of a stream: rank, then feedback on what was shown.
	visit := func(c *http.Client, stream uint64, i int) (events int, ok bool) {
		id := stream<<40 | uint64(i)
		root := r.tr.begin("visit", -1, id)
		defer r.tr.end(root)
		req := r.in.rankReq(stream, i)
		sp := r.tr.begin("http.rank", root, id)
		t0 := time.Now()
		resp, err := rank(c, url, req, clickPages)
		rankLat.add(time.Since(t0))
		r.tr.end(sp)
		r.led.record("rank", err)
		if err != nil {
			return 0, false
		}
		fb := r.in.visitFeedback(i, resp.Results, resp.Arm, req.Unit)
		sp = r.tr.begin("http.feedback", root, id)
		t0 = time.Now()
		ok = r.led.writeFeedback(c, url, "feedback", fb)
		fbLat.add(time.Since(t0))
		r.tr.end(sp)
		return len(fb), ok
	}
	warm := runClosed(time.Second, 2, func(c, i int) (int, bool) {
		return visit(clients[c], streamWarm, 2*i+c)
	}, nil)
	r.logf("warm-up: %d visits, %d failed", warm.OK, warm.Bad)

	s0, err := getStats(url)
	if err != nil {
		return err
	}
	imps0, clks0, ev0 := r.led.ackTotals()
	bytes0, err := dirBytes(dataDir)
	if err != nil {
		return err
	}
	var hs *healthSampler
	if r.traced() {
		hs = sampleHealth([]string{url})
	}
	openFor := r.seconds / 4
	open := summarizeOpen(clickRate, openFor, runOpen(clickRate, openFor, 2, func(conn, i int) bool {
		_, ok := visit(clients[conn], streamVisit, i)
		return ok
	}, func(int) { r.led.record("rank", errAbandoned) }))
	r.reportOpen("visit (rank + feedback ack)", open)
	r.noteLate(open)
	r.logf("  within it: rank %v; feedback ack %v", rankLat.summary(), fbLat.summary())
	closed, err := r.measureClosed(clients, url, clickPages, r.seconds-openFor, func(c, i int) (int, bool) {
		return visit(clients[c], streamVisit, 1<<30+2*i+c)
	})
	if err != nil {
		return err
	}
	r.logf("visit closed loop, 2 users: %d visits, %d acknowledged feedback events, %d failed, latency %v; windowed events %v",
		closed.OK, closed.Units, closed.Bad, closed.Latency, closed.Win)
	if hs != nil {
		hs.finish()
	}
	s1, err := quiesce(url)
	if err != nil {
		return err
	}
	delta, err := s1.sub(s0)
	if err != nil {
		r.fail("%v", err)
	}
	imps1, clks1, ev1 := r.led.ackTotals()
	// Conservation: once quiet, the service applied exactly the feedback
	// it acknowledged.
	if got, want := delta.ClicksApplied, uint64(clks1-clks0); got != want {
		r.fail("clicks_applied moved by %d, acknowledged %d", got, want)
	}
	if got, want := delta.ImpressionsApplied, uint64(imps1-imps0); got != want {
		r.fail("impressions_applied moved by %d, acknowledged %d", got, want)
	}
	r.logf("conservation: %d impressions and %d clicks acknowledged and applied; cache %d hits / %d misses; wal %d commits, %d syncs, %d records",
		imps1-imps0, clks1-clks0, delta.CacheHits, delta.CacheMisses, delta.WALCommits, delta.WALSyncs, delta.WALRecords)
	r.checkSeededRepeat(clients, url, clickPages)

	if r.traced() {
		bytes1, err := dirBytes(dataDir)
		if err != nil {
			return err
		}
		r.liveLayers(delta, hs, bytes1-bytes0, ev1-ev0)
		if err := r.ladder(ladderConfig{pages: clickPages}); err != nil {
			return err
		}
	}
	return r.stopDaemon(d)
}

// quiesce waits until every shard's feedback queue is empty and the
// applied counters stop moving, then returns the final stats.
func quiesce(url string) (statsCounters, error) {
	deadline := time.Now().Add(30 * time.Second)
	c := &http.Client{Timeout: 5 * time.Second}
	var last statsCounters
	for {
		var hz struct {
			Shards []struct {
				QueueDepth int `json:"queue_depth"`
			} `json:"shards"`
		}
		if err := getJSON(c, url+"/v1/healthz", &hz); err != nil {
			return last, err
		}
		busy := false
		for _, s := range hz.Shards {
			busy = busy || s.QueueDepth > 0
		}
		s, err := getStats(url)
		if err != nil {
			return last, err
		}
		if !busy && s.ImpressionsApplied == last.ImpressionsApplied && s.ClicksApplied == last.ClicksApplied {
			return s, nil
		}
		last = s
		if time.Now().After(deadline) {
			return last, fmt.Errorf("service not quiet after 30s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
