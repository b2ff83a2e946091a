package main

import (
	"sync"
	"syscall"
	"time"
)

// openLoop sends n requests on a fixed schedule — request i is due at
// start + i*interval — whether or not earlier ones have been answered,
// the way independent users reach a server. A request is sent as soon as
// it is due; when the generator runs late (a stall, a busy CPU) the
// overdue requests go out back to back, and their latency is still timed
// from the due time, so a stall is charged to every request scheduled
// behind it rather than silently omitted.
//
// Request i travels on lane i % lanes (a connection); issue sends it and
// returns a function that waits for its answer. flush pushes buffered
// sends to the wire; it runs before the generator sleeps and at the end.
// One collector per lane waits for its lane's answers in send order and
// passes each request's due, sent and answered times to done. openLoop
// returns once every request has been answered.
func openLoop(start time.Time, interval time.Duration, n, lanes int,
	issue func(i int) func() error, flush func(),
	done func(i int, due, sent, end time.Time, err error)) {
	type pending struct {
		i         int
		due, sent time.Time
		wait      func() error
	}
	queues := make([]chan pending, lanes)
	var wg sync.WaitGroup
	for l := range queues {
		// Sized to the lane's number of sends, so the generator never
		// blocks on a slow collector — blocking would be exactly the
		// coordinated omission an open loop exists to avoid.
		queues[l] = make(chan pending, n/lanes+1)
		wg.Add(1)
		go func(q chan pending) {
			defer wg.Done()
			for p := range q {
				err := p.wait()
				done(p.i, p.due, p.sent, time.Now(), err)
			}
		}(queues[l])
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if now := time.Now(); now.Before(due) {
			flush()
			sleepUntil(due)
		}
		sent := time.Now()
		queues[i%lanes] <- pending{i: i, due: due, sent: sent, wait: issue(i)}
	}
	flush()
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
}

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's timers wake a sleeping goroutine on a ~1 ms grain when the
// process is otherwise idle, which would put up to a millisecond of the
// generator's own lateness into every latency; nanosleep wakes within
// ~60 µs.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
