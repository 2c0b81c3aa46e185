package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The load generator. It runs in the benchmark's own process and drives
// the system under test over loopback with at most two connections at a
// time, on the same CPU as the service (proc.go).

// sleepUntil blocks until t. time.Sleep and tickers round sub-millisecond
// waits up to about a millisecond, so the last stretch uses nanosleep,
// which returns within about 150µs when the calling goroutine is locked
// to its OS thread.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - time.Millisecond)
			continue
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-reads the clock
	}
}

// timing is one open-loop operation, as offsets from the loop's start.
type timing struct {
	Due        time.Duration // when the schedule said to send it
	Dispatched time.Duration // when the generator handed it to a connection
	Sent       time.Duration // when a connection began sending it
	Done       time.Duration // when its reply (or failure) arrived
	OK         bool
}

// openReport summarizes an open loop. Latency runs from the due time, so
// a stall also charges the wait it imposes on every later operation;
// Late is how far behind schedule the generator itself dispatched.
type openReport struct {
	Rate    float64
	OK, Bad int
	Latency latency // successful operations, due → done
	Late    latency // dispatched − due, every operation
	Wait    latency // sent − due: time spent queued behind busy connections
	// Backlogged reports a growing queue: the median wait for a
	// connection in the last quarter of the schedule exceeds the first
	// quarter's by more than a millisecond.
	Backlogged bool
	Win        windowed // latency per window of the schedule, by due time
}

// window is the length of the time windows a loop's figures are taken
// in.
const window = 250 * time.Millisecond

// windowed is a loop's figures taken per time window.
type windowed struct {
	P50, P90 float64 // medians of each window's p50 and p90, ms
	// P90At is the median percentile the windows' P90 was really taken
	// at: lower than 90 when windows held fewer than 100 samples, so
	// that ten lie beyond.
	P90At float64
	Rate  float64 // median of each window's units per second
	// WinP50, WinP90 and WinRate are each window's p50, p90 and rate, in
	// time order; an empty window's p50 and p90 are NaN.
	WinP50, WinP90, WinRate []float64
}

// windowTail is the percentile each window's tail is printed at. It is
// reported, not gated: on a shared two-vCPU machine even the windowed
// p90 moved by several times between identical runs (README).
const windowTail = 90

// windowStats splits samples by their offset into the whole windows of
// length win that fit in span, and summarizes each window w for which
// keep(w) holds (every window when keep is nil).
func windowStats(span, win time.Duration, at []time.Duration, ms []float64, units []int, keep func(w int) bool) windowed {
	n := max(1, int(span/win))
	lat := make([][]float64, n)
	sum := make([]float64, n)
	for i, t := range at {
		w := int(t / win)
		if t < 0 || w >= n {
			continue
		}
		lat[w] = append(lat[w], ms[i])
		if units != nil {
			sum[w] += float64(units[i])
		}
	}
	var out windowed
	var p50, p90, ats []float64
	for w := range lat {
		if keep != nil && !keep(w) {
			continue
		}
		out.WinRate = append(out.WinRate, sum[w]/win.Seconds())
		if len(lat[w]) == 0 {
			out.WinP50 = append(out.WinP50, math.NaN())
			out.WinP90 = append(out.WinP90, math.NaN())
			continue
		}
		s := append([]float64(nil), lat[w]...)
		sort.Float64s(s)
		at := min(windowTail, tailPercentile(len(s)))
		out.WinP50 = append(out.WinP50, percentile(s, 50))
		out.WinP90 = append(out.WinP90, percentile(s, at))
		p50 = append(p50, out.WinP50[len(out.WinP50)-1])
		p90 = append(p90, out.WinP90[len(out.WinP90)-1])
		ats = append(ats, at)
	}
	out.P50, out.P90, out.P90At, out.Rate = median(p50), median(p90), median(ats), median(out.WinRate)
	return out
}

func (w windowed) String() string {
	return fmt.Sprintf("p50 %.3f ms, p%g %.3f ms, %.1f/s (medians over %d windows of %v; per window p50 %.4g ms, p%g %.3g ms, %.4g/s)",
		w.P50, w.P90At, w.P90, w.Rate, len(w.WinRate), window, w.WinP50, w.P90At, w.WinP90, w.WinRate)
}

// relative is a loop's figures over the echo probe's (echo.go). Each of
// the loop's windows is paired with the probe window right after it, so
// both sides of a pair see the machine at the same speed.
type relative struct {
	Rate  float64 // median over pairs of the loop's rate / the probe's
	P50   float64 // median over pairs of the loop's p50 / the probe's
	Pairs int     // pairs with samples on both sides
}

// relativeTo pairs the loop's windows with the probe's, in turn.
func relativeTo(op, probe windowed) relative {
	var rate, p50 []float64
	for k := 0; k < min(len(op.WinRate), len(probe.WinRate)); k++ {
		if op.WinRate[k] == 0 || probe.WinRate[k] == 0 || math.IsNaN(op.WinP50[k]) || math.IsNaN(probe.WinP50[k]) {
			continue
		}
		rate = append(rate, op.WinRate[k]/probe.WinRate[k])
		p50 = append(p50, op.WinP50[k]/probe.WinP50[k])
	}
	return relative{Rate: median(rate), P50: median(p50), Pairs: len(rate)}
}

func summarizeOpen(rate float64, span time.Duration, ts []timing) openReport {
	r := openReport{Rate: rate}
	var lat, late, wait []float64
	var due []time.Duration
	for _, t := range ts {
		late = append(late, durMS(t.Dispatched-t.Due))
		wait = append(wait, durMS(t.Sent-t.Due))
		if t.OK {
			r.OK++
			lat = append(lat, durMS(t.Done-t.Due))
			due = append(due, t.Due)
		} else {
			r.Bad++
		}
	}
	r.Latency, r.Late, r.Wait = summarize(lat), summarize(late), summarize(wait)
	r.Win = windowStats(span, window, due, lat, nil, nil)
	if q := len(wait) / 4; q > 0 {
		first, last := median(wait[:q]), median(wait[len(wait)-q:])
		r.Backlogged = last-first > 1
	}
	return r
}

// openGrace is how long past its schedule an open loop keeps sending.
var openGrace = 2 * time.Second

// runOpen sends rate operations per second for d on conns connections.
// op(conn, i) performs operation i on connection conn and reports
// success. Operations still unsent openGrace after the schedule ends are
// abandoned: they count as failed, and abandon(i) is called for each so
// that the caller's ledger counts them too.
func runOpen(rate float64, d time.Duration, conns int, op func(conn, i int) bool, abandon func(i int)) []timing {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	ts := make([]timing, n)
	// Sized to the whole schedule so the dispatcher never blocks on a
	// slow service: a blocked dispatcher would stop the clock the
	// latencies are measured against.
	queue := make(chan int, n)
	start := time.Now()
	cutoff := start.Add(d + openGrace)
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				now := time.Now()
				ts[i].Sent = now.Sub(start)
				if now.After(cutoff) {
					ts[i].Done = ts[i].Sent
					abandon(i)
					continue
				}
				ts[i].OK = op(c, i)
				ts[i].Done = time.Since(start)
			}
		}(c)
	}
	func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; i < n; i++ {
			due := time.Duration(i) * interval
			sleepUntil(start.Add(due))
			ts[i].Due = due
			ts[i].Dispatched = time.Since(start)
			queue <- i
		}
	}()
	close(queue)
	wg.Wait()
	return ts
}

// closedReport summarizes a closed loop: each client sends its next
// operation only when the previous one completed.
type closedReport struct {
	Clients int
	Elapsed time.Duration
	OK, Bad int
	Units   int // work acknowledged: rank replies, feedback events, ...
	Latency latency
	Win     windowed // latency and units per second, by completion time
	// Probe and Rel are the echo probe's windows and the loop's figures
	// relative to them; zero when the loop ran without a probe.
	Probe             windowed
	ProbeOK, ProbeBad int
	Rel               relative
}

func (r closedReport) perSecond() float64 { return float64(r.Units) / r.Elapsed.Seconds() }

// runClosed runs clients closed-loop clients for d. op(client, i) runs
// one operation and returns the units of work acknowledged and whether
// it succeeded. When probe is not nil the clients run probe instead of
// op in every odd window, and the report compares the two (relative).
func runClosed(d time.Duration, clients int, op, probe func(client, i int) (units int, ok bool)) closedReport {
	type rec struct {
		lat   []float64
		end   []time.Duration
		units []int
		bad   int
	}
	recs := make([]rec, 2*clients) // op, then probe, per client
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			var next [2]int
			for {
				t0 := time.Now()
				if !t0.Before(stop) {
					return
				}
				kind, fn := 0, op
				if probe != nil && int(t0.Sub(start)/window)%2 == 1 {
					kind, fn = 1, probe
				}
				r := &recs[2*c+kind]
				u, ok := fn(c, next[kind])
				next[kind]++
				if !ok {
					r.bad++
					continue
				}
				now := time.Now()
				r.lat = append(r.lat, durMS(now.Sub(t0)))
				r.end = append(r.end, now.Sub(start))
				r.units = append(r.units, u)
			}
		}(c)
	}
	wg.Wait()
	out := closedReport{Clients: clients, Elapsed: time.Since(start)}
	var lat [2][]float64
	var end [2][]time.Duration
	var units [2][]int
	for i, r := range recs {
		kind := i % 2
		lat[kind] = append(lat[kind], r.lat...)
		end[kind] = append(end[kind], r.end...)
		units[kind] = append(units[kind], r.units...)
		if kind == 0 {
			out.Bad += r.bad
		} else {
			out.ProbeBad += r.bad
		}
	}
	for _, u := range units[0] {
		out.Units += u
	}
	out.OK, out.ProbeOK = len(lat[0]), len(lat[1])
	out.Latency = summarize(lat[0])
	if probe == nil {
		out.Win = windowStats(d, window, end[0], lat[0], units[0], nil)
		return out
	}
	even := func(w int) bool { return w%2 == 0 }
	odd := func(w int) bool { return w%2 == 1 }
	out.Win = windowStats(d, window, end[0], lat[0], units[0], even)
	out.Probe = windowStats(d, window, end[1], lat[1], units[1], odd)
	out.Rel = relativeTo(out.Win, out.Probe)
	return out
}
