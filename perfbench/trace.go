package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Spans of one request share Req; Parent is the index of the span
// that caused this one, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index; -1 when tracing is off.
func (t *tracer) begin(name string, parent int, req uint64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans' table (open spans keep
// End == -1).
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval covered by its children. Overlapping children are
// merged first, so concurrent children are not subtracted twice, and a
// child running past its parent's end only counts up to that end.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		curS, curE := int64(-1), int64(-1)
		flush := func() {
			if curE > curS {
				covered += curE - curS
			}
		}
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				flush()
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		flush()
		out[i] = s.End - s.Start - covered
	}
	return out
}

// spanSummary is the per-name median duration and median self time of a
// trace, in microseconds.
type spanSummary struct {
	Name          string
	N             int
	DurUS, SelfUS float64
}

func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	dur := map[string][]float64{}
	slf := map[string][]float64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e3)
		slf[s.Name] = append(slf[s.Name], float64(self[i])/1e3)
	}
	var out []spanSummary
	for name, d := range dur {
		out = append(out, spanSummary{Name: name, N: len(d), DurUS: median(d), SelfUS: median(slf[name])})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

func (s spanSummary) String() string {
	return fmt.Sprintf("%-28s n=%-7d median %10.2f us  self %10.2f us", s.Name, s.N, s.DurUS, s.SelfUS)
}
