package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 100}, {10, 100}, {39, 100}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1e6, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p < 100 {
			s := make([]float64, c.n)
			for i := range s {
				s[i] = float64(i)
			}
			if beyond := c.n - 1 - int(percentile(s, p)); beyond < 10 {
				t.Errorf("n=%d: p%v has %d samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(s, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(s, 100); got != 1000 {
		t.Errorf("p100 = %v, want 1000", got)
	}
	if got := summarize([]float64{7}); got.N != 1 || got.P50 != 7 || got.Tail != 7 || got.TailAt != 100 {
		t.Errorf("one sample: %+v", got)
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	// The generator was on time for every operation, but operation 1 sat
	// 5ms in the queue behind a stalled operation 0: its latency must
	// include that wait. Operation 2 was dispatched 2ms late.
	ts := []timing{
		{Due: 0, Dispatched: 0, Sent: 0, Done: 6 * ms, OK: true},
		{Due: 1 * ms, Dispatched: 1 * ms, Sent: 6 * ms, Done: 7 * ms, OK: true},
		{Due: 2 * ms, Dispatched: 4 * ms, Sent: 4 * ms, Done: 5 * ms, OK: true},
		{Due: 3 * ms, Dispatched: 3 * ms, Sent: 7 * ms, Done: 9 * ms, OK: false},
	}
	r := summarizeOpen(1000, 4*ms, ts)
	if r.OK != 3 || r.Bad != 1 {
		t.Fatalf("ok/bad = %d/%d, want 3/1", r.OK, r.Bad)
	}
	if r.Latency.N != 3 || r.Latency.P50 != 6 || r.Latency.Tail != 6 {
		t.Errorf("latency %+v, want p50 6ms and max 6ms over 3 successes", r.Latency)
	}
	if r.Late.N != 4 || r.Late.Tail != 2 || r.Late.P50 != 0 {
		t.Errorf("lateness %+v, want max 2ms, median 0", r.Late)
	}
	if r.Wait.Tail != 5 {
		t.Errorf("queue wait tail %v, want 5ms", r.Wait.Tail)
	}
}

func TestOpenLoopDetectsGrowingBacklog(t *testing.T) {
	ms := time.Millisecond
	var steady, growing []timing
	for i := 0; i < 100; i++ {
		due := time.Duration(i) * ms
		steady = append(steady, timing{Due: due, Dispatched: due, Sent: due, Done: due + ms, OK: true})
		wait := time.Duration(i) * ms / 10 // the queue grows 0.1ms per operation
		growing = append(growing, timing{Due: due, Dispatched: due, Sent: due + wait, Done: due + wait + ms, OK: true})
	}
	if summarizeOpen(1000, 100*ms, steady).Backlogged {
		t.Error("steady loop reported a backlog")
	}
	if !summarizeOpen(1000, 100*ms, growing).Backlogged {
		t.Error("growing queue not reported")
	}
}

func TestWindowFiguresAreMediansOverWindows(t *testing.T) {
	var at []time.Duration
	var ms []float64
	var units []int
	for w := 0; w < 4; w++ {
		for i := 0; i < 100; i++ {
			at = append(at, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
			lat := 1.0
			if w == 2 {
				lat = 50 // a stall
			}
			ms = append(ms, lat)
			units = append(units, 2)
		}
	}
	got := windowStats(4*time.Second, time.Second, at, ms, units, nil)
	if got.P50 != 1 || got.P90 != 1 || got.P90At != 90 || got.Rate != 200 || len(got.WinRate) != 4 || got.WinP50[2] != 50 {
		t.Errorf("windowed %+v, want p50 1, p90 1, 200/s over 4 windows", got)
	}
	// Only the kept windows count: here the odd ones.
	got = windowStats(4*time.Second, time.Second, at, ms, units, func(w int) bool { return w%2 == 1 })
	if len(got.WinRate) != 2 || got.WinP50[0] != 1 || got.WinP50[1] != 1 || got.P50 != 1 {
		t.Errorf("odd windows %+v, want windows 1 and 3 with p50 1", got)
	}
}

// TestRelativeToCancelsMachineSpeed pairs a loop's windows with the
// probe's: when the machine halves both, their ratio stays.
func TestRelativeToCancelsMachineSpeed(t *testing.T) {
	nan := math.NaN()
	op := windowed{WinRate: []float64{100, 50, 100, 0}, WinP50: []float64{2, 4, 2, nan}}
	probe := windowed{WinRate: []float64{400, 200, 400, 400}, WinP50: []float64{0.5, 1, 0.5, 0.5}}
	got := relativeTo(op, probe)
	// The last pair has no operation samples and is left out.
	if got.Pairs != 3 || got.Rate != 0.25 || got.P50 != 4 {
		t.Errorf("relative %+v, want rate 0.25 and p50 4 over 3 pairs", got)
	}
}

func TestStatsDelta(t *testing.T) {
	a := statsCounters{ClicksApplied: 5, ImpressionsApplied: 50, QueryCacheHits: 7, QueryCacheMisses: 3,
		WAL: &walCounters{Commits: 2, Syncs: 2, Records: 20}}
	b := statsCounters{ClicksApplied: 9, ImpressionsApplied: 90, QueryCacheHits: 17, QueryCacheMisses: 3,
		Feedback429: 1, WAL: &walCounters{Commits: 6, Syncs: 5, Records: 60}}
	d, err := b.sub(a)
	if err != nil {
		t.Fatal(err)
	}
	want := statsDelta{ClicksApplied: 4, ImpressionsApplied: 40, CacheHits: 10, Feedback429: 1,
		WALCommits: 4, WALSyncs: 3, WALRecords: 40}
	if d != want {
		t.Errorf("delta %+v, want %+v", d, want)
	}
	// An in-memory corpus reports no WAL block on either side.
	if d, err := (statsCounters{ClicksApplied: 3}).sub(statsCounters{}); err != nil || d.WALCommits != 0 || d.ClicksApplied != 3 {
		t.Errorf("no-WAL delta %+v, %v", d, err)
	}
	// A restart between samples makes counters run backwards.
	if _, err := a.sub(b); err == nil {
		t.Error("backwards counters accepted")
	}
}

// TestBenchmarkJSONMatchesMetrics pins the metric names and units this
// program reports to the ones BENCHMARK.json declares.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, code map[string]string) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code reports %d", kind, len(declared), len(code))
		}
		for _, m := range declared {
			if u, ok := code[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s): code has unit %q (reported: %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var declared, code []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(declared, code) {
		t.Errorf("BENCHMARK.json declares workloads %v, the code runs %v", declared, code)
	}
}

// TestBackloggedOpenLoopCountsAbandonedOperations drives an open loop
// faster than its one connection can serve it: the operations still
// queued after the grace period are never sent, and both the loop's
// report and the run's ledger must count them as failed.
func TestBackloggedOpenLoopCountsAbandonedOperations(t *testing.T) {
	defer func(g time.Duration) { openGrace = g }(openGrace)
	openGrace = 50 * time.Millisecond
	led := newLedger()
	ts := runOpen(200, 100*time.Millisecond, 1, func(int, int) bool {
		time.Sleep(20 * time.Millisecond)
		led.record("slow", nil)
		return true
	}, func(int) { led.record("slow", errAbandoned) })
	rep := summarizeOpen(200, 100*time.Millisecond, ts)
	tot := led.totals()
	if len(ts) != 20 || tot.Sent != 20 {
		t.Fatalf("%d operations scheduled, %d in the ledger, want 20", len(ts), tot.Sent)
	}
	// 150ms of sending at 20ms per operation serves at most 8.
	if rep.OK > 8 || rep.Bad != 20-rep.OK || tot.OK != rep.OK || tot.Failed != rep.Bad {
		t.Errorf("report %d ok / %d failed, ledger %+v", rep.OK, rep.Bad, tot)
	}
	if ratio := 1 - float64(tot.Failed)/float64(tot.Sent); ratio > 0.5 {
		t.Errorf("success ratio %v for a loop that served at most 8 of 20", ratio)
	}
}
