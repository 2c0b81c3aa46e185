package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/parexec"
	"repro/internal/policy"
	"repro/internal/quality"
	"repro/internal/randutil"
	"repro/internal/searchidx"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/sim"
	"repro/internal/wal"
)

// The layer ladder: the traced run calls each layer's public functions
// from here, innermost first — policy merge, Corpus rank, the Server
// handler on a recorder, loopback HTTP — on the same seeded requests,
// so each rung's self time is its time minus the rung inside it. The
// write path, the cluster front door and the paper engine get a rung
// each. Spans wrap only these calls.

type ladderConfig struct {
	pages int // the workload's corpus size
	// daemonURL, when set, is a live daemon whose corpus is exactly the
	// bootstrap: its seeded ranks must match the in-process rungs too.
	daemonURL string
}

const (
	ladderReqs   = 4000 // seeded rank requests per rung
	ladderBatch  = 20   // calls per span on the rank rungs
	mergeBatch   = 100  // calls per span on the merge rung
	coherenceN   = 30   // seeded requests compared across rungs
	feedbackRuns = 300
	walRuns      = 300
	doorPairs    = 150
	doorBurst    = 2 * time.Second // replication load on the ladder cluster
	decodeBatch  = 64              // events per binary feedback batch decoded
	stepDays     = 60
)

// daemonConfig is shuffledeckd's default corpus configuration.
func daemonConfig() serve.Config {
	return serve.Config{
		Shards: 4, TopK: 128, PoolCap: 128, Seed: 1,
		Policy: core.Policy{Rule: core.RuleSelective, K: 1, R: 0.1},
	}
}

// timeBatches runs fn(i) for i in [0, n) in batches of size b, one span
// per batch, and returns the median per-call time in microseconds.
func (r *run) timeBatches(name string, parent int, n, b int, fn func(i int)) float64 {
	var per []float64
	for lo := 0; lo < n; lo += b {
		hi := min(lo+b, n)
		sp := r.tr.begin(name, parent, uint64(lo))
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		d := time.Since(t0)
		r.tr.end(sp)
		per = append(per, durUS(d)/float64(hi-lo))
	}
	return median(per)
}

func (r *run) ladder(cfg ladderConfig) error {
	root := r.tr.begin("ladder", -1, 0)
	defer r.tr.end(root)

	// Corpus.Add at the workload's corpus size, page by page.
	c, err := serve.NewCorpus(daemonConfig())
	if err != nil {
		return err
	}
	defer c.Close()
	addUS := make([]float64, cfg.pages)
	rung := r.tr.begin("rung.add", root, 0)
	for i := 0; i < cfg.pages; i++ {
		text, pop := page(i, cfg.pages)
		sp := r.tr.begin("serve.Corpus.Add", rung, uint64(i))
		t0 := time.Now()
		if err := c.Add(i, text, pop); err != nil {
			return err
		}
		addUS[i] = durUS(time.Since(t0))
		r.tr.end(sp)
	}
	c.Sync()
	r.tr.end(rung)
	q := cfg.pages / 4
	r.set("serve.add_us", median(addUS), cfg.pages)
	r.set("serve.add_growth", mean(addUS[len(addUS)-q:])/mean(addUS[:q]), cfg.pages)

	// searchidx.Index.Add on the same documents, and the pruned top-10
	// retrieval the uncached rank path runs.
	pops := make([]float64, cfg.pages)
	ix := searchidx.NewIndex()
	ix.SetPopFunc(func(id uint32) float64 { return pops[id] })
	idxUS := make([]float64, cfg.pages)
	rung = r.tr.begin("rung.index", root, 0)
	for i := 0; i < cfg.pages; i++ {
		text, pop := page(i, cfg.pages)
		pops[i] = pop
		sp := r.tr.begin("searchidx.Index.Add", rung, uint64(i))
		t0 := time.Now()
		if err := ix.Add(searchidx.Document{ID: i, Text: text}); err != nil {
			return err
		}
		idxUS[i] = durUS(time.Since(t0))
		r.tr.end(sp)
	}
	r.set("searchidx.add_us", median(idxUS), cfg.pages)
	snap := ix.Snapshot()
	var queries []string
	for i := 0; len(queries) < 200; i++ {
		if req := r.in.rankReq(streamLadder, i); req.Query != "" {
			queries = append(queries, req.Query)
		}
	}
	skipped := 0
	pruneUS := r.timeBatches("searchidx.Snapshot.RetrievePruned", rung, len(queries), 1, func(i int) {
		var top topHeap
		st := snap.RetrievePruned(queries[i],
			func(upper float64) bool { return top.full() && upper <= top.min() },
			func(ids []uint32) {
				for _, id := range ids {
					top.push(pops[id])
				}
			})
		skipped += st.BlocksSkipped
	})
	r.tr.end(rung)
	r.set("searchidx.retrieve_pruned_us", pruneUS, len(queries))
	r.logf("index: Add %.2f us per page; pruned top-%d retrieval %.2f us per query, %d blocks skipped over %d queries",
		median(idxUS), topN, pruneUS, skipped, len(queries))

	// The rank ladder. Requests carry seeds so every rung must return
	// the same list.
	reqs := make([]serve.RankRequest, ladderReqs)
	bodies := make([][]byte, ladderReqs)
	for i := range reqs {
		reqs[i] = r.in.rankReq(streamLadder, i)
		seed := uint64(i) + 1
		reqs[i].Seed = &seed
		if bodies[i], err = json.Marshal(reqs[i]); err != nil {
			return err
		}
	}
	srv := serve.NewServer(c)
	hts := httptest.NewServer(srv)
	defer hts.Close()
	client := newClient()
	handler := func(i int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(bodies[i])))
		return rec
	}
	var loopErr error
	loopback := func(i int) {
		resp, err := client.Post(hts.URL+"/v1/rank", "application/json", bytes.NewReader(bodies[i]))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		if err != nil && loopErr == nil {
			loopErr = err
		}
	}
	if err := r.checkCoherence(c, reqs[:coherenceN], handler, client, hts.URL, cfg); err != nil {
		return err
	}

	det := make([]int, 0, topN)
	for _, st := range c.Top(topN) {
		det = append(det, st.ID)
	}
	var pool []int
	for i := 0; i < cfg.pages && len(pool) < 128; i++ {
		if _, pop := page(i, cfg.pages); pop == 0 {
			pool = append(pool, i)
		}
	}
	var sc policy.Scratch
	rng := randutil.New(r.seed)
	rankCall := func(i int) {
		_, _, _ = c.RankUnitSeeded(reqs[i].Unit, reqs[i].Query, reqs[i].N, *reqs[i].Seed)
	}
	// Warm every rung on the whole request set first — the first request
	// of each query fills the query cache, and the rank workloads measure
	// the cached path — and collect the corpus build's garbage, so each
	// rung runs in the same state.
	for i := 0; i < ladderReqs; i++ {
		rankCall(i)
		handler(i)
		if i%2 == 0 {
			loopback(i / 2)
		}
	}
	runtime.GC()
	rung = r.tr.begin("rung.rank", root, 0)
	mergeUS := r.timeBatches("policy.Scratch.MergeTagged", rung, ladderReqs*5, mergeBatch, func(int) {
		ps, pp := policy.Slice(det), policy.Slice(pool)
		sc.MergeTagged(&ps, &pp, 1, 0.1, rng)
	})
	rankUS := r.timeBatches("serve.Corpus.RankUnitSeeded", rung, ladderReqs, ladderBatch, rankCall)
	handlerUS := r.timeBatches("serve.Server.ServeHTTP", rung, ladderReqs, ladderBatch, func(i int) { handler(i) })
	loopUS := r.timeBatches("http.loopback.rank", rung, ladderReqs/2, 5, loopback)
	// Tracing overhead: the rank rung again with a span around every
	// call, against the batch timing above.
	rankSpanUS := r.timeBatches("serve.Corpus.RankUnitSeeded.traced", rung, ladderReqs, 1, rankCall)
	r.tr.end(rung)
	if loopErr != nil {
		return fmt.Errorf("ladder loopback rung: %v", loopErr)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 1000; i++ {
		handler(i)
	}
	runtime.ReadMemStats(&m1)
	r.set("policy.merge_us", mergeUS, ladderReqs*5)
	r.set("serve.rank_us", rankUS, ladderReqs)
	r.set("serve.rank_self_us", rankUS-mergeUS, ladderReqs)
	r.set("serve.handler_us", handlerUS, ladderReqs)
	r.set("serve.handler_self_us", handlerUS-rankUS, ladderReqs)
	// The recorder and request the rung builds itself are in the count.
	r.set("serve.handler_allocs", float64(m1.Mallocs-m0.Mallocs)/1000, 1000)
	r.set("http.loopback_us", loopUS, ladderReqs/2)
	r.set("http.self_us", loopUS-handlerUS, ladderReqs/2)
	r.logf("ladder (us per call): merge %.2f < rank %.2f < handler %.2f < loopback %.2f; traced rank %.2f",
		mergeUS, rankUS, handlerUS, loopUS, rankSpanUS)

	if err := r.writePathRungs(root, cfg); err != nil {
		return err
	}
	if err := r.frontDoorRung(root); err != nil {
		return err
	}
	if err := r.paperRungs(root); err != nil {
		return err
	}
	late := 0.0
	for _, l := range r.lates {
		late = max(late, l)
	}
	r.set("gen.late_p99_ms", late, len(r.lates))
	for _, s := range summarizeSpans(r.tr.snapshot()) {
		r.logf("span %v", s)
	}
	return nil
}

// checkCoherence ranks the same seeded requests on every rung — the
// in-process Corpus, the handler, loopback HTTP and, when its corpus is
// the bootstrap, the live daemon — and requires identical lists.
func (r *run) checkCoherence(c *serve.Corpus, reqs []serve.RankRequest, handler func(int) *httptest.ResponseRecorder, client *http.Client, loopURL string, cfg ladderConfig) error {
	daemon := newClient()
	for i, req := range reqs {
		res, _, err := c.RankUnitSeeded(req.Unit, req.Query, req.N, *req.Seed)
		r.led.record("ladder.rank", err)
		if err != nil {
			return err
		}
		want := make([]int, len(res))
		for j, x := range res {
			want[j] = x.ID
		}
		lists := map[string][]int{}
		rec := handler(i)
		var hr serve.RankResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil || rec.Code != http.StatusOK {
			r.fail("handler rung: status %d: %s", rec.Code, rec.Body.String())
			continue
		}
		lists["handler"] = ids(hr.Results)
		lr, err := rank(client, loopURL, req, cfg.pages)
		r.led.record("ladder.loopback", err)
		if err != nil {
			r.fail("loopback rung: %v", err)
			continue
		}
		lists["loopback"] = ids(lr.Results)
		if cfg.daemonURL != "" {
			dr, err := rank(daemon, cfg.daemonURL, req, cfg.pages)
			r.led.record("ladder.daemon", err)
			if err != nil {
				r.fail("daemon rung: %v", err)
				continue
			}
			lists["daemon"] = ids(dr.Results)
		}
		for rungName, got := range lists {
			if tau := loadgen.KendallTau(want, got); tau != 1 {
				r.fail("rank coherence: request %d on %s has Kendall tau %v against Corpus (%v vs %v)", i, rungName, tau, got, want)
			}
		}
	}
	r.logf("rank coherence: %d seeded requests identical across Corpus, handler, loopback%s", len(reqs),
		map[bool]string{true: " and the daemon", false: ""}[cfg.daemonURL != ""])
	return nil
}

// writePathRungs times Corpus.Feedback on a benchmark-owned durable
// corpus, the binary batch decoder, and WAL group commit, all with
// group-commit fsync (-fsync batch) on the run's filesystem.
func (r *run) writePathRungs(root int, cfg ladderConfig) error {
	rung := r.tr.begin("rung.write", root, 0)
	defer r.tr.end(rung)
	dcfg := daemonConfig()
	dcfg.Durability = serve.Durability{DataDir: filepath.Join(r.work, "ladder-durable"), FsyncMode: "batch"}
	if err := os.MkdirAll(dcfg.Durability.DataDir, 0o755); err != nil {
		return err
	}
	const pages = 1000
	dc, err := serve.NewCorpus(dcfg)
	if err != nil {
		return err
	}
	for i := 0; i < pages; i++ {
		text, pop := page(i, pages)
		if err := dc.Add(i, text, pop); err != nil {
			dc.Close()
			return err
		}
	}
	dc.Sync()
	var fbErr error
	fbUS := r.timeBatches("serve.Corpus.Feedback", rung, feedbackRuns, 1, func(i int) {
		shown := make([]serve.RankedItem, topN)
		for j := range shown {
			shown[j] = serve.RankedItem{Slot: j + 1, ID: int(draw(r.seed, streamLadder, i, j) * pages)}
		}
		if err := dc.Feedback(r.in.visitFeedback(i, shown, "", "")); err != nil && fbErr == nil {
			fbErr = err
		}
	})
	dc.Close()
	if fbErr != nil {
		return fmt.Errorf("ladder feedback: %v", fbErr)
	}
	r.set("serve.feedback_us", fbUS, feedbackRuns)

	frame := serve.AppendFeedbackBatchRequest(nil, r.in.batchEvents(0, decodeBatch, cfg.pages))
	var decErr error
	decUS := r.timeBatches("serve.DecodeFeedbackBatchRequest", rung, 5000, 100, func(int) {
		if _, err := serve.DecodeFeedbackBatchRequest(frame); err != nil && decErr == nil {
			decErr = err
		}
	})
	if decErr != nil {
		return decErr
	}
	r.set("serve.feedback_decode_us", decUS, 5000)

	// WAL records the size of a logged feedback event: kind byte,
	// timestamp, page, slot and counts.
	log, _, err := wal.Open(filepath.Join(r.work, "ladder-wal"), wal.Options{Fsync: wal.FsyncBatch})
	if err != nil {
		return err
	}
	payload := make([]byte, 16)
	var walErr error
	walUS := r.timeBatches("wal.Log.Commit", rung, walRuns, 1, func(int) {
		for j := 0; j < topN; j++ {
			if _, err := log.Append(payload); err != nil && walErr == nil {
				walErr = err
			}
		}
		f, err := log.CommitAsync()
		if err == nil {
			err = log.Complete(f)
		}
		if err != nil && walErr == nil {
			walErr = err
		}
	})
	if err := log.Close(); err != nil && walErr == nil {
		walErr = err
	}
	if walErr != nil {
		return fmt.Errorf("ladder wal: %v", walErr)
	}
	r.set("wal.commit_us", walUS, walRuns)
	r.logf("write path (us per call): Corpus.Feedback of %d events %.1f; decode %d-event batch %.2f; WAL commit of %d records %.1f",
		topN, fbUS, decodeBatch, decUS, topN, walUS)
	return nil
}

// frontDoorRung sends the same feedback batch through a non-leader's
// front door and straight to the leader's API on a 3-node cluster; the
// difference is what the front door's split-and-forward costs.
func (r *run) frontDoorRung(root int) error {
	rung := r.tr.begin("rung.cluster", root, 0)
	defer r.tr.end(rung)
	const pages = 1000
	cl, err := cluster.New(cluster.Options{DataDir: filepath.Join(r.work, "ladder-cluster")})
	if err != nil {
		return err
	}
	defer cl.Close()
	for i := 0; i < pages; i++ {
		text, pop := page(i, pages)
		if err := cl.Add(i, text, pop); err != nil {
			return err
		}
	}
	if err := cl.WaitConverged(time.Minute); err != nil {
		return err
	}
	leader := cl.LeaderIndex(0)
	var events []serve.Event
	for p := 0; len(events) < 16; p++ {
		if serve.ShardIndex(p, 4) == 0 {
			events = append(events, serve.Event{Page: p, Slot: 1, Impressions: 1})
		}
	}
	door := cl.FrontDoorURL((leader + 1) % cl.Len())
	api := cl.APIURL(leader)
	var nodes []string
	for i := 0; i < cl.Len(); i++ {
		nodes = append(nodes, cl.APIURL(i))
	}
	c := newClient()
	var viaDoor, direct []float64
	for i := 0; i < doorPairs; i++ {
		for _, target := range []struct {
			name, url string
			into      *[]float64
		}{{"cluster.FrontDoor.feedback", door, &viaDoor}, {"cluster.leader.feedback", api, &direct}} {
			sp := r.tr.begin(target.name, rung, uint64(i))
			t0 := time.Now()
			_, _, err := sendFeedback(c, target.url, events)
			d := time.Since(t0)
			r.tr.end(sp)
			r.led.record("ladder.cluster_feedback", err)
			if err != nil {
				return fmt.Errorf("ladder cluster feedback: %v", err)
			}
			*target.into = append(*target.into, durMS(d))
		}
	}
	r.set("cluster.frontdoor_ms", median(viaDoor)-median(direct), doorPairs)

	// Replication under load: two clients send batches spread over every
	// shard through the front door while every node's health is sampled.
	hs := sampleHealth(nodes)
	clients := []*http.Client{c, newClient()}
	burst := runClosed(doorBurst, 2, func(k, i int) (int, bool) {
		_, _, err := sendFeedback(clients[k], door, r.in.batchEvents(2*i+k, decodeBatch, pages))
		r.led.record("ladder.cluster_feedback", err)
		return decodeBatch, err == nil
	}, nil)
	hs.finish()
	if burst.Bad > 0 {
		return fmt.Errorf("ladder cluster feedback: %d of %d batches failed", burst.Bad, burst.OK+burst.Bad)
	}
	lag, occ := hs.replication()
	r.set("cluster.follower_lag_frames_p99", lag, len(hs.lagFrames))
	r.set("cluster.window_occupancy", occ, len(hs.occupancy))
	r.logf("cluster: 16-event batch via non-leader front door %.3f ms, straight to leader %.3f ms; %d-event batches from 2 clients at %.0f events/s: follower lag p99 %g frames, leader window occupancy %.4f (%d health samples)",
		median(viaDoor), median(direct), decodeBatch, burst.perSecond(), lag, occ, hs.samples)
	return nil
}

// paperRungs times the paper engine on the fig5 community: simulator
// days, and the fig5 analytic solves fanned out on the parexec grid.
func (r *run) paperRungs(root int) error {
	rung := r.tr.begin("rung.paper", root, 0)
	defer r.tr.end(rung)
	comm := community.Default()
	qs := quality.DeterministicWithTop(quality.Default(), comm.Pages)
	s, err := sim.New(comm, core.Policy{Rule: core.RuleSelective, K: 1, R: 0.1}, qs, sim.Options{Seed: r.seed})
	if err != nil {
		return err
	}
	stepUS := r.timeBatches("sim.Simulator.StepDay", rung, stepDays, 1, func(int) { s.StepDay() })
	r.set("sim.stepday_us", stepUS, stepDays)

	// fig5's distinct policies: r=0 (both rules collapse to none) and
	// selective and uniform at each r > 0.
	pols := []core.Policy{{Rule: core.RuleNone, K: 1}}
	for _, x := range []float64{0.05, 0.1, 0.15, 0.2} {
		pols = append(pols, core.Policy{Rule: core.RuleSelective, K: 1, R: x}, core.Policy{Rule: core.RuleUniform, K: 1, R: x})
	}
	buckets := quality.Buckets(qs, 40)
	solveMS := make([]float64, len(pols))
	jobs := make([]func() (*analytic.Model, error), len(pols))
	for i, p := range pols {
		i, p := i, p
		jobs[i] = func() (*analytic.Model, error) {
			sp := r.tr.begin("analytic.Solve", rung, uint64(i))
			defer r.tr.end(sp)
			t0 := time.Now()
			m, err := analytic.Solve(comm, p, buckets, analytic.Options{})
			solveMS[i] = durMS(time.Since(t0))
			return m, err
		}
	}
	const workers = 2
	sp := r.tr.begin("parexec.Run", rung, 0)
	t0 := time.Now()
	_, err = parexec.Run(jobs, parexec.Options{Workers: workers})
	wall := time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	busy := 0.0
	for _, ms := range solveMS {
		busy += ms
	}
	r.set("analytic.solve_ms", median(solveMS), len(pols))
	r.set("parexec.busy_ratio", busy/(workers*durMS(wall)), len(pols))
	r.logf("paper engine: StepDay %.1f us; %d analytic solves, median %.1f ms, grid of %d workers busy %.0f%% of %v",
		stepUS, len(pols), median(solveMS), workers, 100*busy/(workers*durMS(wall)), wall.Round(time.Millisecond))
	return nil
}

// topHeap keeps the ten largest popularities seen, for the pruned
// retrieval's skip test.
type topHeap struct{ v []float64 }

func (h *topHeap) full() bool   { return len(h.v) == topN }
func (h *topHeap) min() float64 { return h.v[0] }

func (h *topHeap) push(x float64) {
	if len(h.v) < topN {
		h.v = append(h.v, x)
		for i := len(h.v) - 1; i > 0 && h.v[(i-1)/2] > h.v[i]; i = (i - 1) / 2 {
			h.v[i], h.v[(i-1)/2] = h.v[(i-1)/2], h.v[i]
		}
		return
	}
	if x <= h.v[0] {
		return
	}
	h.v[0] = x
	for i := 0; ; {
		l, s := 2*i+1, i
		if l < len(h.v) && h.v[l] < h.v[s] {
			s = l
		}
		if l+1 < len(h.v) && h.v[l+1] < h.v[s] {
			s = l + 1
		}
		if s == i {
			return
		}
		h.v[i], h.v[s] = h.v[s], h.v[i]
		i = s
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
