package main

import (
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	// root [0,100]
	//   a [10,40]            self 30-5 = 25
	//     a1 [15,20]
	//   b [30,60] overlaps a; union of a and b is [10,60]
	//   c [90,120] sticks out of root; only [90,100] counts
	// root self = 100 - 50 - 10 = 40
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "a1", parent: 1, start: 15, end: 20},
		{name: "b", parent: 0, start: 30, end: 60},
		{name: "c", parent: 0, start: 90, end: 120},
		{name: "other", parent: -1, start: 5, end: 7},
	}
	want := []int64{40, 25, 5, 30, 30, 2}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %s: self %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	agg := aggregate(spans)
	if agg["root"].own != 40 || agg["root"].total != 100 || agg["a"].count != 1 {
		t.Fatalf("aggregate root=%+v a=%+v", agg["root"], agg["a"])
	}
}

func TestReplayedChildrenAndAbsorb(t *testing.T) {
	epoch := time.Unix(1000, 0)
	tr := newTrace(epoch)
	root := tr.add("req", -1, 7, 100, 200)
	// Two sequential replayed children inside the root, one parallel pair.
	tr.replayed("x", root, 0, 30)
	tr.replayed("y", root, 30, 20)
	self := selfTimes(tr.spans)
	if self[root] != 50 {
		t.Fatalf("root self %d, want 50", self[root])
	}
	if tr.spans[1].req != 7 || tr.spans[2].start != 130 {
		t.Fatalf("replayed spans %+v", tr.spans[1:])
	}
	if tr.replayed("z", -1, 0, 5) != -1 {
		t.Fatal("replay under an untraced request must be dropped")
	}

	other := newTrace(epoch.Add(time.Microsecond))
	r2 := other.add("req", -1, 8, 0, 10)
	other.replayed("x", r2, 0, 4)
	tr.absorb(other)
	if len(tr.spans) != 5 || tr.spans[4].parent != 3 || tr.spans[3].start != 1000 {
		t.Fatalf("absorbed spans %+v", tr.spans[3:])
	}
}
