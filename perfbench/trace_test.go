package main

import "testing"

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "visit", Start: 0, End: 100, Parent: -1},
		{Name: "rank", Start: 10, End: 40, Parent: 0},
		{Name: "feedback", Start: 50, End: 90, Parent: 0},
		// Two overlapping children of span 2 (concurrent calls) cover
		// 60..85 once, not twice.
		{Name: "a", Start: 60, End: 80, Parent: 2},
		{Name: "b", Start: 70, End: 85, Parent: 2},
		// A child running past its parent's end counts only up to it.
		{Name: "late", Start: 30, End: 60, Parent: 1},
		// An unfinished span neither has a self time nor covers its parent.
		{Name: "open", Start: 0, End: -1, Parent: 0},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 40, 30 - 10, 40 - 25, 20, 15, 30, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", -1, 1)
	tr.end(i)
	if i != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded span %d", i)
	}
	tr = newTracer()
	root := tr.begin("root", -1, 7)
	child := tr.begin("child", root, 7)
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[0].End < s[1].End || s[1].Req != 7 {
		t.Errorf("spans %+v", s)
	}
	sum := summarizeSpans(s)
	if len(sum) != 2 || sum[0].Name != "child" || sum[1].SelfUS > sum[1].DurUS {
		t.Errorf("summary %+v", sum)
	}
}
