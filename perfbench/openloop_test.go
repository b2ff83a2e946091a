package main

import (
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLaterRequests injects a 40 ms stall into the
// generator at request 10. Requests due during the stall must be timed
// from their due time, so their latency carries the stall (no
// coordinated omission), and the generator must report itself late.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n        = 80
		interval = time.Millisecond
		stall    = 40 * time.Millisecond
		stallAt  = 10
	)
	lat := make([]time.Duration, n)
	lag := make([]time.Duration, n)
	ready := func() error { return nil }
	start := time.Now().Add(5 * time.Millisecond)
	openLoop(start, interval, n, 1,
		func(i int) func() error {
			if i == stallAt {
				time.Sleep(stall)
			}
			return ready
		},
		func() {},
		func(i int, due, sent, end time.Time, err error) {
			if err != nil {
				t.Error(err)
			}
			lat[i] = end.Sub(due)
			lag[i] = sent.Sub(due)
		})

	// Request 11 was due 1 ms after the stall began and could only be sent
	// when it ended, ~39 ms late.
	if min := stall - 2*interval - 5*time.Millisecond; lat[stallAt+1] < min || lag[stallAt+1] < min {
		t.Fatalf("request after the stall: latency %v, lag %v; want both >= %v", lat[stallAt+1], lag[stallAt+1], min)
	}
	// Its latency includes the lateness; a closed loop would report ~0.
	if lat[stallAt+1] < lag[stallAt+1] {
		t.Fatalf("latency %v shorter than the generator lag %v", lat[stallAt+1], lag[stallAt+1])
	}
	// Latency decreases along the backlog: each later request waited less.
	if lat[stallAt+20] >= lat[stallAt+1] {
		t.Fatalf("backlog did not drain: lat[%d]=%v lat[%d]=%v", stallAt+1, lat[stallAt+1], stallAt+20, lat[stallAt+20])
	}
	// Requests before the stall were not affected by it.
	if lat[stallAt-5] > stall/2 {
		t.Fatalf("request before the stall charged %v", lat[stallAt-5])
	}
}
