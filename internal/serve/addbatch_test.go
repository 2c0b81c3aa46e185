package serve

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/policy"
	"repro/internal/randutil"
)

// batchTopics mirror the daemon's bootstrap topics: a few shared words
// per page plus a unique one, so posting lists span many blocks and the
// index overlay folds.
var batchTopics = []string{
	"go concurrency patterns",
	"search ranking randomization",
	"distributed systems consensus",
	"web crawler politeness",
}

// batchPage returns page i of an n-page test corpus; every tenth page
// starts at zero awareness.
func batchPage(i, n int) PageAdd {
	p := PageAdd{ID: i, Text: fmt.Sprintf("%s page%d", batchTopics[i%len(batchTopics)], i)}
	if i%10 != 3 {
		p.Popularity = float64(n) / float64(i+1)
	}
	return p
}

// batchConfig is a two-arm corpus whose per-shard promotion pool
// outgrows PoolCap, so every shard publish draws its Fisher–Yates
// sample from the shard RNG.
func batchConfig() Config {
	return Config{
		Shards: 4, TopK: 32, PoolCap: 16, Seed: 11,
		Arms: []Arm{
			{Name: "control", Policy: policy.Spec{Rule: policy.RuleNone, K: 1}, Weight: 1},
			{Name: "treat", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.3}, Weight: 1},
		},
	}
}

// assertSameRankings compares two corpora's seeded rankings — browse and
// topic queries, both arms — over seeds 1..seeds, plus their stats.
func assertSameRankings(t *testing.T, got, want *Corpus, seeds int) {
	t.Helper()
	queries := []string{"", "search ranking", "go", "distributed consensus", "crawler"}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		for _, q := range queries {
			for _, unit := range []string{"u1", "u2", "u3"} {
				g, garm, err := got.RankUnitSeeded(unit, q, 20, seed)
				if err != nil {
					t.Fatal(err)
				}
				w, warm, err := want.RankUnitSeeded(unit, q, 20, seed)
				if err != nil {
					t.Fatal(err)
				}
				if garm != warm || !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d unit %s query %q: arm %s %v, want arm %s %v", seed, unit, q, garm, g, warm, w)
				}
			}
		}
	}
	gs, ws := got.Stats(), want.Stats()
	if gs.Pages != ws.Pages || gs.ZeroAware != ws.ZeroAware || !reflect.DeepEqual(gs.Epochs, ws.Epochs) {
		t.Fatalf("stats: pages %d zero-aware %d epochs %v, want %d %d %v",
			gs.Pages, gs.ZeroAware, gs.Epochs, ws.Pages, ws.ZeroAware, ws.Epochs)
	}
}

// assertSamePages compares the state of pages 0..n-1, births included.
func assertSamePages(t *testing.T, got, want *Corpus, n int) {
	t.Helper()
	for id := 0; id < n; id++ {
		g, gok := got.Page(id)
		w, wok := want.Page(id)
		if g != w || gok != wok {
			t.Fatalf("page %d: %+v (%v), want %+v (%v)", id, g, gok, w, wok)
		}
	}
}

// TestAddBatchRankingsMatchAdd: adding pages in random AddBatch chunks
// serves exactly the rankings a per-page Add loop serves — the same
// births, the same shard publishes and therefore the same promotion
// draws, over 200 seeds of browse and topic queries.
func TestAddBatchRankingsMatchAdd(t *testing.T) {
	const n = 3000
	one := newTestCorpus(t, batchConfig())
	for i := 0; i < n; i++ {
		p := batchPage(i, n)
		if err := one.Add(p.ID, p.Text, p.Popularity); err != nil {
			t.Fatal(err)
		}
	}
	one.Sync()
	batched := newTestCorpus(t, batchConfig())
	rng := randutil.New(5)
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(700))
		pages := make([]PageAdd, 0, hi-lo)
		for i := lo; i < hi; i++ {
			pages = append(pages, batchPage(i, n))
		}
		if err := batched.AddBatch(pages); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	batched.Sync()
	assertSamePages(t, batched, one, n)
	assertSameRankings(t, batched, one, 200)
}

// TestAddBatchRejectsWholeBatch: any invalid page rejects the whole batch
// and changes nothing — not the pages, not the birth allocation: the
// corpus afterwards serves exactly what a corpus that never saw the
// rejected batch serves.
func TestAddBatchRejectsWholeBatch(t *testing.T) {
	const n = 400
	c := newTestCorpus(t, batchConfig())
	control := newTestCorpus(t, batchConfig())
	for _, cc := range []*Corpus{c, control} {
		for i := 0; i < n/2; i++ {
			p := batchPage(i, n)
			if err := cc.Add(p.ID, p.Text, p.Popularity); err != nil {
				t.Fatal(err)
			}
		}
	}
	good := []PageAdd{batchPage(n/2, n), batchPage(n/2+1, n)}
	bad := map[string]PageAdd{
		"negative popularity": {ID: n - 1, Text: "negative", Popularity: -1},
		"duplicate of corpus": batchPage(5, n),
		"duplicate in batch":  good[0],
		"no indexable terms":  {ID: n - 1, Text: " ;;; "},
	}
	for name, b := range bad {
		if err := c.AddBatch(append(append([]PageAdd(nil), good...), b)); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
	}
	c.Sync()
	if st := c.Stats(); st.Pages != n/2 {
		t.Fatalf("rejected batches left %d pages, want %d", st.Pages, n/2)
	}
	for _, cc := range []*Corpus{c, control} {
		for i := n / 2; i < n; i++ {
			p := batchPage(i, n)
			if err := cc.Add(p.ID, p.Text, p.Popularity); err != nil {
				t.Fatal(err)
			}
		}
		cc.Sync()
	}
	assertSamePages(t, c, control, n)
	assertSameRankings(t, c, control, 20)
}

// TestAddBatchFollowerRefuses: a batch touching a follower shard is
// refused whole with ErrNotLeader.
func TestAddBatchFollowerRefuses(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 2, Seed: 1})
	c.SetShardWritable(1, false)
	err := c.AddBatch([]PageAdd{{ID: 0, Text: "leader page"}, {ID: 1, Text: "follower page"}})
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("AddBatch over a follower shard = %v, want ErrNotLeader", err)
	}
	c.Sync()
	if st := c.Stats(); st.Pages != 0 {
		t.Fatalf("refused batch added %d pages", st.Pages)
	}
}

// TestApplyReplicatedIndexesInLogOrder: a follower indexes a replicated
// batch's adds as one index batch, but a remove in the middle of the
// batch still lands between the adds around it — a page removed and
// re-added within one shipment ends indexed under its new birth — and
// re-shipped frames of already indexed pages are skipped.
func TestApplyReplicatedIndexesInLogOrder(t *testing.T) {
	leader := newTestCorpus(t, Config{Shards: 1, Seed: 3, Durability: Durability{DataDir: t.TempDir(), FsyncMode: "none"}})
	if err := leader.AddBatch([]PageAdd{
		{ID: 1, Text: "shipped alpha", Popularity: 3},
		{ID: 2, Text: "shipped beta", Popularity: 2},
		{ID: 3, Text: "shipped gamma"},
	}); err != nil {
		t.Fatal(err)
	}
	leader.Sync()
	if !leader.Remove(2) {
		t.Fatal("remove failed")
	}
	leader.Sync()
	if err := leader.Add(2, "shipped delta", 5); err != nil {
		t.Fatal(err)
	}
	leader.Sync()
	var frames []ReplFrame
	rd := leader.WALReader(0, 1)
	for {
		lsn, payload, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		frames = append(frames, ReplFrame{LSN: lsn, Payload: append([]byte(nil), payload...)})
	}
	if len(frames) != 5 {
		t.Fatalf("leader logged %d frames, want 5 (three adds, a remove, an add)", len(frames))
	}

	follower := newTestCorpus(t, Config{Shards: 1, Seed: 3, Durability: Durability{DataDir: t.TempDir(), FsyncMode: "none"}})
	follower.SetShardWritable(0, false)
	if err := follower.ApplyReplicated(0, frames); err != nil {
		t.Fatal(err)
	}
	// Re-shipping the adds of pages already indexed is skipped.
	if err := follower.ApplyReplicated(0, frames[:3]); err != nil {
		t.Fatal(err)
	}
	follower.Sync()
	for id := 1; id <= 3; id++ {
		g, gok := follower.Page(id)
		w, wok := leader.Page(id)
		if g != w || gok != wok {
			t.Fatalf("page %d: follower %+v (%v), leader %+v (%v)", id, g, gok, w, wok)
		}
	}
	for _, q := range []string{"shipped", "beta", "delta"} {
		g, err := follower.RankSeeded(q, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := leader.RankSeeded(q, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("query %q: follower %v, leader %v", q, g, w)
		}
	}
	if got, _ := follower.RankSeeded("beta", 10, 1); len(got) != 0 {
		t.Fatalf("removed page's text still matches on the follower: %v", got)
	}
}
