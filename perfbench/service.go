package main

import (
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// bootDaemon starts shuffledeckd r.setups() times, each from a fresh
// state, and times each from process start to the first 200 on
// /v1/healthz. All but the last are stopped again, each checked for a
// clean exit. args(k) returns boot k's flags and its data directory
// ("" for none), which is removed once that boot is stopped.
func (r *run) bootDaemon(args func(k int) ([]string, string, error)) (*proc, string, error) {
	var setups []float64
	for k := 0; k < r.setups(); k++ {
		flags, dir, err := args(k)
		if err != nil {
			return nil, "", err
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, "", err
		}
		d, err := startProc(filepath.Join(r.work, fmt.Sprintf("shuffledeckd-%d.log", k)),
			filepath.Join(r.bin, "shuffledeckd"), append([]string{"-addr", addr}, flags...)...)
		if err != nil {
			return nil, "", err
		}
		url := "http://" + addr
		ready, err := d.waitHealthy(url, 120*time.Second)
		if err != nil {
			d.kill()
			return nil, "", err
		}
		setups = append(setups, ready.Seconds())
		if k == r.setups()-1 {
			r.logf("setup: shuffledeckd %v ready in %v s (median of %d boots)", flags, setups, len(setups))
			r.set("setup_s", median(setups), len(setups))
			return d, url, nil
		}
		if err := d.stop(); err != nil {
			return nil, "", err
		}
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, "", err
			}
		}
	}
	panic("unreachable")
}

// stopDaemon records the daemon's peak RSS, then stops it and checks its
// exit status.
func (r *run) stopDaemon(d *proc) error {
	rss, err := d.peakRSSMB()
	if err != nil {
		d.kill()
		return err
	}
	r.set("peak_rss_mb", rss, 1)
	if err := d.stop(); err != nil {
		r.fail("daemon shutdown: %v", err)
	}
	return nil
}

func getStats(url string) (statsCounters, error) {
	var s statsCounters
	err := getJSON(&http.Client{Timeout: 10 * time.Second}, url+"/v1/stats", &s)
	return s, err
}

// healthSampler polls /v1/healthz on a set of nodes while load runs:
// feedback queue depth, replication lag and flow-control window.
type healthSampler struct {
	stop, done chan struct{}
	queueMax   int
	lagFrames  []float64 // follower shards' lag behind their leader
	occupancy  []float64 // leader shards' window frames / window cap
	samples    int
}

func sampleHealth(urls []string) *healthSampler {
	h := &healthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	c := &http.Client{Timeout: 2 * time.Second}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, u := range urls {
				var hz serve.HealthzResponse
				if err := getJSON(c, u+"/v1/healthz", &hz); err != nil {
					continue
				}
				h.samples++
				for _, s := range hz.Shards {
					h.queueMax = max(h.queueMax, s.QueueDepth)
				}
				if hz.Replication == nil {
					continue
				}
				for _, s := range hz.Replication.Shards {
					switch s.Role {
					case "follower":
						h.lagFrames = append(h.lagFrames, float64(s.LagFrames))
					case "leader":
						if s.WindowCap > 0 {
							h.occupancy = append(h.occupancy, float64(s.WindowFrames)/float64(s.WindowCap))
						}
					}
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *healthSampler) finish() {
	close(h.stop)
	<-h.done
}

// replication returns the p99 of the sampled follower lag, in frames,
// and the mean sampled occupancy of the leaders' flow-control windows.
func (h *healthSampler) replication() (lagP99, occupancy float64) {
	if len(h.lagFrames) > 0 {
		lag := append([]float64(nil), h.lagFrames...)
		sort.Float64s(lag)
		lagP99 = percentile(lag, 99)
	}
	if len(h.occupancy) > 0 {
		occupancy = mean(h.occupancy)
	}
	return lagP99, occupancy
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// liveLayers sets the per-layer metrics read from the live system's
// counters over the traced load: stats deltas, health samples and data
// directory growth. Layers the workload's system does not have read 0.
func (r *run) liveLayers(d statsDelta, h *healthSampler, dirGrowth int64, events int64) {
	lookups := d.CacheHits + d.CacheMisses
	r.set("cache.hit_ratio", ratio(float64(d.CacheHits), float64(lookups)), int(lookups))
	r.set("searchidx.blocks_skipped_per_miss", ratio(float64(d.BlocksSkipped), float64(d.CacheMisses)), int(d.CacheMisses))
	r.set("searchidx.za_candidates_per_miss", ratio(float64(d.ZACandidates), float64(d.CacheMisses)), int(d.CacheMisses))
	r.set("wal.records_per_commit", ratio(float64(d.WALRecords), float64(d.WALCommits)), int(d.WALCommits))
	r.set("wal.bytes_per_event", ratio(float64(dirGrowth), float64(events)), int(events))
	r.set("serve.refused", float64(d.Feedback429+d.Feedback503+d.RateLimited429), 1)
	if h == nil {
		h = &healthSampler{}
	}
	r.set("serve.queue_depth_max", float64(h.queueMax), h.samples)
	r.logf("live counters: cache %d hits / %d misses, blocks skipped %d, za candidates %d, wal %d commits / %d syncs / %d records, refused %d, health samples %d",
		d.CacheHits, d.CacheMisses, d.BlocksSkipped, d.ZACandidates, d.WALCommits, d.WALSyncs, d.WALRecords,
		d.Feedback429+d.Feedback503+d.RateLimited429, h.samples)
}

// durations collects call timings from concurrent connections.
type durations struct {
	mu sync.Mutex
	ms []float64
}

func (d *durations) add(t time.Duration) {
	d.mu.Lock()
	d.ms = append(d.ms, durMS(t))
	d.mu.Unlock()
}

func (d *durations) summary() latency {
	d.mu.Lock()
	defer d.mu.Unlock()
	return summarize(d.ms)
}

// reportOpen prints an open loop's result with the generator's lateness
// beside it.
func (r *run) reportOpen(what string, rep openReport) {
	r.logf("%s open loop at %g/s: %d ok, %d failed; latency from due %v; windowed %v; generator late %v; queued %v; backlog growing: %v",
		what, rep.Rate, rep.OK, rep.Bad, rep.Latency, rep.Win, rep.Late, rep.Wait, rep.Backlogged)
	if rep.Backlogged {
		r.logf("WARNING: %s open loop built a growing backlog at %g/s", what, rep.Rate)
	}
}
