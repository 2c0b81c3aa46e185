package main

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// daemonDefaults is shuffledeckd's default corpus configuration.
func daemonDefaults() serve.Config {
	return serve.Config{
		Shards: 4, TopK: 128, PoolCap: 128, Seed: 1,
		Policy: core.Policy{Rule: core.RuleSelective, K: 1, R: 0.1},
	}
}

// smallPoolConfig is the daemon's configuration with a per-shard
// promotion pool that outgrows PoolCap on a few thousand pages, so every
// shard publish draws its capped sample from the shard RNG.
func smallPoolConfig() serve.Config {
	cfg := daemonDefaults()
	cfg.TopK, cfg.PoolCap = 32, 16
	cfg.Policy.R = 0.3
	return cfg
}

func newCorpus(t testing.TB, cfg serve.Config) *serve.Corpus {
	t.Helper()
	c, err := serve.NewCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// addPerPage adds Bootstrap's pages one Corpus.Add at a time.
func addPerPage(c *serve.Corpus, n int, fresh float64) error {
	for i := 0; i < n; i++ {
		text, pop := bootstrapPage(i, n, fresh)
		if err := c.Add(i, text, pop); err != nil {
			return err
		}
	}
	return nil
}

// assertSameRankings compares two corpora's seeded rankings for seeds
// 1..200 on the given queries ("" is the browse ranking).
func assertSameRankings(t *testing.T, got, want *serve.Corpus, queries []string) {
	t.Helper()
	for seed := uint64(1); seed <= 200; seed++ {
		for _, q := range queries {
			g, _, err := got.RankUnitSeeded("unit", q, 20, seed)
			if err != nil {
				t.Fatal(err)
			}
			w, _, err := want.RankUnitSeeded("unit", q, 20, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d query %q: %v, want %v", seed, q, g, w)
			}
		}
	}
}

var topicQueries = []string{"search ranking", "go concurrency", "http", "page quality popularity bias"}

// TestBootstrapMatchesPerPageAdds: the batched Bootstrap serves exactly
// the rankings of the same pages added by a per-page Add loop — browse
// and topic queries over 200 seeds. A load generator that builds its
// reference corpus page by page checks its rankings against the daemon's
// bootstrapped one on this property.
func TestBootstrapMatchesPerPageAdds(t *testing.T) {
	const n = 2*bootstrapChunk + 333
	perPage := newCorpus(t, smallPoolConfig())
	defer perPage.Close()
	if err := addPerPage(perPage, n, 0.1); err != nil {
		t.Fatal(err)
	}
	perPage.Sync()
	boot := newCorpus(t, smallPoolConfig())
	defer boot.Close()
	if err := Bootstrap(boot, n, 0.1); err != nil {
		t.Fatal(err)
	}
	boot.Sync()
	if g, w := boot.Stats().Epochs, perPage.Stats().Epochs; !reflect.DeepEqual(g, w) {
		t.Fatalf("shard epochs %v, per-page %v: the shards published differently", g, w)
	}
	assertSameRankings(t, boot, perPage, append([]string{""}, topicQueries...))
}

// TestBootstrapResumeMatchesFresh: a durable corpus that crashed
// part-way through its bootstrap — each shard holding a prefix of its
// pages — recovers, and the resumed Bootstrap fills in exactly the
// missing pages: every page's state and every topic ranking equal a
// fresh bootstrap's. (Browse rankings also draw on the shards' publish
// RNG, which a restart reseeds, so they are not compared.)
func TestBootstrapResumeMatchesFresh(t *testing.T) {
	const n = 2*bootstrapChunk + 333
	cfg := smallPoolConfig()
	cfg.Durability = serve.Durability{DataDir: t.TempDir(), FsyncMode: "none"}
	partial := newCorpus(t, cfg)
	cut := []int{n, 1100, 0, 1501} // per-shard prefix that survived the crash
	var pages []serve.PageAdd
	for i := 0; i < n; i++ {
		if i < cut[partial.ShardOf(i)] {
			text, pop := bootstrapPage(i, n, 0.1)
			pages = append(pages, serve.PageAdd{ID: i, Text: text, Popularity: pop})
		}
	}
	if err := partial.AddBatch(pages); err != nil {
		t.Fatal(err)
	}
	partial.Sync()
	partial.Close()

	resumed := newCorpus(t, cfg)
	defer resumed.Close()
	if got := resumed.Recovery().Pages; got != len(pages) {
		t.Fatalf("recovered %d pages, want %d", got, len(pages))
	}
	if err := Bootstrap(resumed, n, 0.1); err != nil {
		t.Fatal(err)
	}
	resumed.Sync()
	fresh := newCorpus(t, smallPoolConfig())
	defer fresh.Close()
	if err := Bootstrap(fresh, n, 0.1); err != nil {
		t.Fatal(err)
	}
	fresh.Sync()
	for i := 0; i < n; i++ {
		g, gok := resumed.Page(i)
		w, wok := fresh.Page(i)
		if g != w || gok != wok {
			t.Fatalf("page %d: resumed %+v (%v), fresh %+v (%v)", i, g, gok, w, wok)
		}
	}
	if g, w := resumed.Stats(), fresh.Stats(); g.Pages != w.Pages || g.ZeroAware != w.ZeroAware {
		t.Fatalf("resumed stats %d pages / %d zero-aware, fresh %d / %d", g.Pages, g.ZeroAware, w.Pages, w.ZeroAware)
	}
	assertSameRankings(t, resumed, fresh, topicQueries)
}

// bootstrapBenchPages is the corpus size of the bootstrap benchmarks:
// large enough that the per-page index cost's growth with the corpus
// shows, small enough for a few iterations per CI run.
const bootstrapBenchPages = 12500

// benchBootstrap times filling a fresh daemon-default corpus with fill
// and syncing it, per op.
func benchBootstrap(b *testing.B, fill func(c *serve.Corpus) error) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := newCorpus(b, daemonDefaults())
		if err := fill(c); err != nil {
			b.Fatal(err)
		}
		c.Sync()
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
}

// BenchmarkCorpusBootstrap is the daemon's boot fill: Bootstrap's
// batched Corpus.AddBatch path.
func BenchmarkCorpusBootstrap(b *testing.B) {
	benchBootstrap(b, func(c *serve.Corpus) error {
		return Bootstrap(c, bootstrapBenchPages, 0.1)
	})
}

// BenchmarkCorpusBootstrapPerPage fills the same pages one Corpus.Add at
// a time: the baseline the batched path is gated against.
func BenchmarkCorpusBootstrapPerPage(b *testing.B) {
	benchBootstrap(b, func(c *serve.Corpus) error {
		return addPerPage(c, bootstrapBenchPages, 0.1)
	})
}
