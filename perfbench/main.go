// Command perfbench is the repository's benchmark of record. It builds
// nothing itself: run.sh builds the binaries and runs it from the
// repository root as
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each workload drives the real daemon, shuffledeckd, over loopback from
// this separate process, checks its outputs, prints a human-readable report, and ends with
// one JSON line: {"correct", "attempted", "failed", "metrics"}. An
// untraced run reports the end-to-end metrics; a traced run (--trace 1)
// reports the per-layer metrics, from spans the benchmark records around
// its own calls into each layer. The process exits non-zero when any
// output check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer map every metric this program reports, in the
// untraced and the traced run, to its unit. The names and units must
// match BENCHMARK.json (a unit test checks).
var (
	endToEnd = map[string]string{
		"setup_s":       "s",
		"peak_rss_mb":   "MB",
		"rate_vs_echo":  "ratio",
		"p50_vs_echo":   "ratio",
		"success_ratio": "ratio",
	}
	perLayer = map[string]string{
		"serve.add_us":                      "us",
		"searchidx.add_us":                  "us",
		"serve.add_growth":                  "ratio",
		"policy.merge_us":                   "us",
		"serve.rank_us":                     "us",
		"serve.rank_self_us":                "us",
		"serve.handler_us":                  "us",
		"serve.handler_self_us":             "us",
		"serve.handler_allocs":              "count",
		"http.loopback_us":                  "us",
		"http.self_us":                      "us",
		"cache.hit_ratio":                   "ratio",
		"searchidx.retrieve_pruned_us":      "us",
		"searchidx.blocks_skipped_per_miss": "count",
		"searchidx.za_candidates_per_miss":  "count",
		"serve.feedback_us":                 "us",
		"serve.feedback_decode_us":          "us",
		"wal.commit_us":                     "us",
		"wal.records_per_commit":            "count",
		"wal.bytes_per_event":               "B",
		"serve.refused":                     "count",
		"serve.queue_depth_max":             "count",
		"cluster.frontdoor_ms":              "ms",
		"cluster.follower_lag_frames_p99":   "count",
		"cluster.window_occupancy":          "ratio",
		"sim.stepday_us":                    "us",
		"analytic.solve_ms":                 "ms",
		"parexec.busy_ratio":                "ratio",
		"gen.late_p99_ms":                   "ms",
		"trace.overhead_ratio":              "ratio",
	}
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, for the report
}

// run is one benchmark invocation.
type run struct {
	root    string // repository checkout
	bin     string // built binaries
	work    string // this run's scratch directory, removed at exit
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil unless --trace 1
	in      *inputs
	led     *ledger
	bad     []string // failed output checks
	metrics map[string]metric
	lates   []float64 // generator lateness tails of the open loops, ms
}

// set records a metric from n samples.
func (r *run) set(name string, value float64, n int) {
	unit, ok := endToEnd[name]
	if r.tr != nil {
		unit, ok = perLayer[name]
	}
	if !ok {
		return // the other mode's metric
	}
	r.metrics[name] = metric{Value: value, Unit: unit, n: n}
}

// fail records a failed output check.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.bad = append(r.bad, msg)
	fmt.Printf("CHECK FAILED: %s\n", msg)
}

func (r *run) logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// traced reports whether this is the per-layer run.
func (r *run) traced() bool { return r.tr != nil }

// measureClosed runs the workload's closed loop op for d on clients.
// An untraced run takes turns with the echo probe (echo.go) of the
// daemon at url, whose corpus has pages pages, and sets the gated
// figures from the comparison; a traced run measures the tracing
// overhead instead.
func (r *run) measureClosed(clients []*http.Client, url string, pages int, d time.Duration, op func(c, i int) (int, bool)) (closedReport, error) {
	if r.traced() {
		return r.overhead(d, op), nil
	}
	e, err := r.startEcho(clients, url, pages)
	if err != nil {
		return closedReport{}, err
	}
	defer e.p.killIfRunning()
	rep := runClosed(d, 2, op, e.op(clients, pages))
	if rep.ProbeBad > 0 || rep.Rel.Pairs == 0 {
		return rep, fmt.Errorf("echo probe: %d round trips failed, %d window pairs measured", rep.ProbeBad, rep.Rel.Pairs)
	}
	r.logf("echo probe, %d round trips: windowed %v", rep.ProbeOK, rep.Probe)
	r.logf("over the echo, median of %d window pairs: rate %.4f, p50 %.4f", rep.Rel.Pairs, rep.Rel.Rate, rep.Rel.P50)
	r.set("rate_vs_echo", rep.Rel.Rate, rep.OK)
	r.set("p50_vs_echo", rep.Rel.P50, rep.OK)
	return rep, e.p.stop()
}

// overheadPhases is how many alternating untraced and traced phases
// overhead runs.
const overheadPhases = 8

// overhead runs the workload's closed loop for d in alternating
// untraced and traced phases, sets trace.overhead_ratio to the untraced
// phases' throughput over the traced ones', and returns the traced
// phases' last report.
func (r *run) overhead(d time.Duration, op func(c, i int) (int, bool)) closedReport {
	tr := r.tr
	var units, secs [2]float64
	var rep closedReport
	for phase := 0; phase < overheadPhases; phase++ {
		traced := phase % 2
		r.tr = nil
		if traced == 1 {
			r.tr = tr
		}
		rep = runClosed(d/overheadPhases, 2, func(c, i int) (int, bool) { return op(c, phase<<26+i) }, nil)
		units[traced] += float64(rep.Units)
		secs[traced] += rep.Elapsed.Seconds()
	}
	r.tr = tr
	untraced, traced := units[0]/secs[0], units[1]/secs[1]
	r.logf("tracing overhead: closed loop %.1f/s untraced, %.1f/s traced, over %d alternating phases", untraced, traced, overheadPhases)
	r.set("trace.overhead_ratio", untraced/traced, overheadPhases)
	return rep
}

// setups is how many times a run sets its system up; setup_s is their
// median. The traced run reports no set-up time and sets up once.
func (r *run) setups() int {
	if r.traced() {
		return 1
	}
	return 5
}

type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"rank-cached", runRankCached},
	{"click-loop", runClickLoop},
}

func main() {
	name := flag.String("workload", "", `workload to run, or "all" for every workload in turn`)
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	root := flag.String("root", ".", "repository checkout root")
	echo := flag.String("echo", "", "serve the echo probe on this address instead (echo.go)")
	echoReply := flag.String("echo-reply", "", "file holding the echo probe's reply")
	flag.Parse()
	if *echo != "" {
		if err := serveEcho(*echo, *echoReply); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: echo: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *name == "all" {
		os.Exit(runAll())
	}
	var wl *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	if err := benchmark(wl, *root, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
}

// runAll runs every workload as a child process with this process's
// flags and returns 1 if any of them failed.
func runAll() int {
	status := 0
	for _, wl := range workloads {
		var args []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := command(benchCPU, os.Args[0], append(args, "-workload", wl.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			status = 1
		}
	}
	return status
}

// errChecksFailed reports a run that measured everything but failed an
// output check; its result line is already printed.
var errChecksFailed = errors.New("output checks failed")

func benchmark(wl *workload, root string, seed uint64, seconds time.Duration, traced bool) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	work, err := os.MkdirTemp(filepath.Join(build, "tmp"), wl.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r := &run{
		root: root, bin: filepath.Join(build, "bin"), work: work,
		seed: seed, seconds: seconds,
		in: newInputs(seed), led: newLedger(), metrics: map[string]metric{},
	}
	if traced {
		r.tr = newTracer()
	}
	r.logf("perfbench %s seed=%d seconds=%v traced=%v", wl.name, seed, seconds.Seconds(), traced)
	if err := wl.run(r); err != nil {
		return err
	}
	if traced {
		path := filepath.Join(build, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, seed))
		if err := r.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %v", err)
		}
		r.logf("spans: %s", path)
	}
	return r.finish()
}

// finish prints the operation ledger and every metric, then the result
// line; an output-check failure makes the exit status non-zero.
func (r *run) finish() error {
	t := r.led.totals()
	if t.Sent == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	r.set("success_ratio", 1-float64(t.Failed)/float64(t.Sent), t.Sent)
	want := endToEnd
	if r.traced() {
		want = perLayer
	}
	var missing []string
	for name := range want {
		if _, ok := r.metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	r.led.mu.Lock()
	var ops []string
	for op := range r.led.ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		c := r.led.ops[op]
		r.logf("op %-22s sent %8d  succeeded %8d  failed %6d", op, c.Sent, c.OK, c.Failed)
	}
	for msg, n := range r.led.errs {
		r.logf("  failure x%d: %s", n, msg)
	}
	for _, w := range r.led.wrong {
		r.bad = append(r.bad, w)
	}
	r.led.mu.Unlock()
	var names []string
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		r.logf("metric %-34s %14.6g %-6s (n=%d)", name, m.Value, m.Unit, m.n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.bad) == 0, t.Sent, t.Failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(r.bad) > 0 {
		return errChecksFailed
	}
	return nil
}

// noteLate keeps an open loop's generator lateness tail for the traced
// run's gen.late_p99_ms.
func (r *run) noteLate(rep openReport) {
	r.lates = append(r.lates, rep.Late.Tail)
}
