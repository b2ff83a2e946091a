package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"time"
)

// A span covers one call into a layer's public function, made from the
// benchmark's own code. Spans of one request share req; parent is the
// index of the enclosing span in the same trace, or -1 for a root.
// Replayed spans (a layer call repeated on captured inputs to time it in
// isolation) are placed inside their parent's interval at the offset the
// replay assigns, so self time can be computed the same way for both.
type span struct {
	name       string
	parent     int32
	req        uint64
	start, end int64 // ns since the trace's epoch
}

// maxSpans caps one trace's memory (about 40 B per span). Requests begun
// past the cap are not traced; per-layer metrics then cover the earlier
// requests only.
const maxSpans = 600_000

type trace struct {
	epoch time.Time
	spans []span
}

func newTrace(epoch time.Time) *trace { return &trace{epoch: epoch} }

func (t *trace) now() int64 { return int64(time.Since(t.epoch)) }

func (t *trace) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// add records a finished span and returns its index, or -1 past the cap.
func (t *trace) add(name string, parent int32, req uint64, start, end int64) int32 {
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// replayed adds a child of parent lasting d, starting off ns after the
// parent's start. A negative parent (untraced request) is ignored.
func (t *trace) replayed(name string, parent int32, off, d int64) int32 {
	if parent < 0 {
		return -1
	}
	p := t.spans[parent]
	return t.add(name, parent, p.req, p.start+off, p.start+off+d)
}

// absorb appends another trace's spans, re-basing their parent indexes
// and times onto this trace's epoch.
func (t *trace) absorb(o *trace) {
	base := int32(len(t.spans))
	shift := int64(o.epoch.Sub(t.epoch))
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		s.start += shift
		s.end += shift
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once; the parts
// of a child outside its parent's interval do not count).
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, k := range kids[i] {
			lo, hi := spans[k].start, spans[k].end
			if lo < s.start {
				lo = s.start
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			case v.hi > curHi:
				curHi = v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanAgg sums durations and self times per span name.
type spanAgg struct {
	count      int
	total, own int64
	ownHist    hist
}

func aggregate(spans []span) map[string]*spanAgg {
	self := selfTimes(spans)
	out := map[string]*spanAgg{}
	for i, s := range spans {
		a := out[s.name]
		if a == nil {
			a = &spanAgg{}
			out[s.name] = a
		}
		a.count++
		a.total += s.end - s.start
		a.own += self[i]
		a.ownHist.recordValue(self[i])
	}
	return out
}

// meanUs is the mean duration (or self time) per span in microseconds.
func (a *spanAgg) meanUs(self bool) float64 {
	if a == nil || a.count == 0 {
		return 0
	}
	v := a.total
	if self {
		v = a.own
	}
	return float64(v) / float64(a.count) / 1e3
}

// write stores the spans as gzip-compressed tab-separated lines:
// req, index, parent, name, start_ns, end_ns.
func (t *trace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "req\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
