package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

type opClass uint8

const (
	opRead opClass = iota
	opWrite
)

// window is the sampling interval of the per-window throughput and
// latency figures.
const window = 500 * time.Millisecond

// loopStats is what a closed or open loop measured.
type loopStats struct {
	all, read, write hist
	attempted        int
	failed           int
	windows          []int         // completed ops per window
	winAll           []hist        // latencies per window
	cpu              time.Duration // process CPU time (user+system) over the phase
	// achieved, when set, is the rate an open loop sustained: completions
	// over the time from the first due request to the last answer.
	achieved float64
}

func newLoopStats(dur time.Duration) *loopStats {
	n := int(dur / window)
	return &loopStats{windows: make([]int, n), winAll: make([]hist, n)}
}

// done records one finished op ending at end (measured from the loop's
// start), with latency lat.
func (s *loopStats) done(class opClass, sinceStart, lat time.Duration, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		return
	}
	s.all.record(lat)
	if class == opRead {
		s.read.record(lat)
	} else {
		s.write.record(lat)
	}
	if w := int(sinceStart / window); w >= 0 && w < len(s.windows) {
		s.windows[w]++
		s.winAll[w].record(lat)
	}
}

func (s *loopStats) merge(o *loopStats) {
	s.all.merge(&o.all)
	s.read.merge(&o.read)
	s.write.merge(&o.write)
	s.attempted += o.attempted
	s.failed += o.failed
	for i := range s.windows {
		s.windows[i] += o.windows[i]
		s.winAll[i].merge(&o.winAll[i])
	}
}

// opsPerSec is a closed loop's throughput: the upper quartile of its
// per-window completion rates. On a shared host other tenants' work only
// ever takes CPU away — a window in which a vCPU was stolen completes
// fewer ops, never more — so the faster windows estimate the program's own
// capacity, while the mean or median tracks how busy the host was (the
// median moved 2x between identical runs on a 2-vCPU host with 10-40%
// steal).
func (s *loopStats) opsPerSec() float64 {
	if s.achieved > 0 {
		return s.achieved
	}
	rates := make([]float64, len(s.windows))
	for i, n := range s.windows {
		rates[i] = float64(n) / window.Seconds()
	}
	return quartiles(rates)[2]
}

// windowQuantileUs is the median over windows of each window's
// q-quantile latency, in microseconds: a figure a burst of outside
// interference in a few windows barely moves.
func (s *loopStats) windowQuantileUs(q float64) float64 {
	var xs []float64
	for i := range s.winAll {
		if s.winAll[i].n > 0 {
			xs = append(xs, s.winAll[i].quantileUs(q))
		}
	}
	return median(xs)
}

// closedLoop runs one goroutine per client, each calling step back to
// back for dur: a client sends its next op only when the previous one has
// returned, as a caller waiting on each reply does.
func closedLoop(clients int, dur time.Duration, step func(c int) (opClass, error)) *loopStats {
	per := make([]*loopStats, clients)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		per[c] = newLoopStats(dur)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := per[c]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				class, err := step(c)
				t1 := time.Now()
				st.done(class, t1.Sub(start), t1.Sub(t0), err)
			}
		}(c)
	}
	wg.Wait()
	out := newLoopStats(dur)
	for _, st := range per {
		out.merge(st)
	}
	out.cpu = cpuTime() - cpu0
	return out
}

// cpuTime is the process's user plus system CPU time so far. Unlike wall
// time it does not grow while the host runs other tenants' work, which
// makes CPU per op the steadiest cost figure on a shared machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// warmup is the untimed lead-in before each measured phase, so caches
// and pools are filled and lazy set-up has finished.
func warmup(seconds int) time.Duration {
	d := time.Duration(seconds) * time.Second / 10
	return min(max(d, 200*time.Millisecond), time.Second)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeapMB is the heap still reachable after two collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupTimes collects per-step set-up durations over several repetitions
// and reports each step's median.
type setupTimes map[string][]float64

func (st setupTimes) add(step string, d time.Duration) { st[step] = append(st[step], d.Seconds()) }

func (st setupTimes) median(step string) float64 { return median(st[step]) }

// Each run sets its workload up at least minSetupReps times, and keeps
// repeating (up to maxSetupReps) until the rounds have taken
// minSetupTime, so that a set-up of a few milliseconds is still timed
// over enough rounds for its median to hold still; setup_s is the median
// round.
const (
	minSetupReps = 5
	maxSetupReps = 40
	minSetupTime = time.Second
)

// setupMore reports whether round r (0-based) of a set-up begun at t0
// should run.
func setupMore(r int, t0 time.Time) bool {
	return r < minSetupReps || (r < maxSetupReps && time.Since(t0) < minSetupTime)
}

// timeIt returns how long f took.
func timeIt(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}
