package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/stats"
	"repro/internal/storage"
)

// figScale scales the paper's Figure 7 population: ~11k objects, 50
// ending values, ~500 OIDs per whole-path point query.
const figScale = 0.05

// selectFigure7 generates the Figure 7 population and selects its index
// configuration the way a user gets one: statistics collected from the
// store, the paper's Figure 7 loads, core.Select.
func selectFigure7(times setupTimes, seed int64) (*gen.Generated, core.Configuration, error) {
	var g *gen.Generated
	d, err := timeIt(func() (err error) {
		g, err = gen.Generate(model.Figure7Stats(), figScale, seed)
		return err
	})
	if err != nil {
		return nil, core.Configuration{}, err
	}
	times.add("gen.generate", d)
	var ps *model.PathStats
	d, err = timeIt(func() (err error) {
		ps, err = stats.Collect(g.Store, g.Path, model.PaperParams())
		return err
	})
	if err != nil {
		return nil, core.Configuration{}, err
	}
	times.add("stats.collect", d)
	assumed := model.Figure7Stats()
	for l := 1; l <= ps.Len(); l++ {
		copy(ps.Level(l).Loads, assumed.Level(l).Loads)
	}
	var res core.Result
	d, err = timeIt(func() (err error) {
		res, _, err = core.Select(ps, cost.Organizations)
		return err
	})
	if err != nil {
		return nil, core.Configuration{}, err
	}
	times.add("core.select", d)
	return g, res.Best, nil
}

func configString(c core.Configuration) string {
	c.Cost = 0
	return c.String()
}

// engineOps issues one client's engine calls. Untraced, it calls the
// engine directly. Traced, reads hold mu shared and writes hold it
// exclusively, so the page counters read around a write or a replay
// belong to that call alone; every point query is then replayed through
// the active set's index structures (Engine.Indexes()[i].LookupInto +
// oodb.SortUnique, stage by stage as the executor chains them) to time
// descent and normalization, and the replay's answer is checked against
// the real call's.
type engineOps struct {
	e  *engine.Engine
	tc *engineTrace // nil when untraced
}

type engineTrace struct {
	mu  sync.RWMutex
	gen uint64 // write count; a replay compares answers only if no write intervened

	// Guarded by mu held exclusively.
	writes                      int
	writeIndex, writeStore      storage.Stats
	replays, compared, mismatch int
	descents, oidsIn, oidsOut   int
	replayIndex, replayStore    storage.Stats
	checkpointWrites            hist // latency of writes during which a checkpoint ran
	scratch                     *index.Scratch
	stageA, stageB, replayOut   []oodb.OID

	reads atomic.Int64 // read ops of the traced phase
}

func newEngineTrace() *engineTrace { return &engineTrace{scratch: index.NewScratch()} }

func (o engineOps) query(tr *trace, req uint64, buf []oodb.OID, v oodb.Value, class string) ([]oodb.OID, error) {
	if o.tc == nil {
		return o.e.QueryInto(buf[:0], v, class, false)
	}
	tc := o.tc
	tc.mu.RLock()
	gen := tc.gen
	t0 := tr.now()
	out, err := o.e.QueryInto(buf[:0], v, class, false)
	t1 := tr.now()
	tc.mu.RUnlock()
	tc.reads.Add(1)
	if err != nil {
		return out, err
	}
	root := tr.add("engine.QueryInto", -1, req, t0, t1)
	if root < 0 {
		return out, nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	ix0, st0 := o.e.IndexStats(), o.e.Store().Pager().Stats()
	rep, err := tc.replay(o.e, tr, root, v, class)
	if err != nil {
		return out, fmt.Errorf("replay: %w", err)
	}
	tc.replayIndex.Add(diff(o.e.IndexStats(), ix0))
	tc.replayStore.Add(diff(o.e.Store().Pager().Stats(), st0))
	tc.replays++
	if gen == tc.gen {
		tc.compared++
		if !slices.Equal(rep, out) {
			tc.mismatch++
		}
	}
	return out, nil
}

func (o engineOps) queryRange(tr *trace, req uint64, lo, hi oodb.Value, class string) error {
	if o.tc == nil {
		_, err := o.e.QueryRange(lo, hi, class, false)
		return err
	}
	o.tc.mu.RLock()
	t0 := tr.now()
	_, err := o.e.QueryRange(lo, hi, class, false)
	tr.add("engine.QueryRange", -1, req, t0, tr.now())
	o.tc.mu.RUnlock()
	o.tc.reads.Add(1)
	return err
}

func (o engineOps) write(tr *trace, req uint64, name string, f func() error) error {
	if o.tc == nil {
		return f()
	}
	tc := o.tc
	tc.mu.Lock()
	defer tc.mu.Unlock()
	ix0, st0, cp0 := o.e.IndexStats(), o.e.Store().Pager().Stats(), o.e.Checkpoints()
	t0 := tr.now()
	err := f()
	t1 := tr.now()
	tr.add(name, -1, req, t0, t1)
	tc.gen++
	tc.writes++
	tc.writeIndex.Add(diff(o.e.IndexStats(), ix0))
	tc.writeStore.Add(diff(o.e.Store().Pager().Stats(), st0))
	if o.e.Checkpoints() != cp0 {
		tc.checkpointWrites.recordValue(t1 - t0)
	}
	return err
}

// replay re-evaluates a point query the way exec.IndexSet chains the
// active set: the structure owning the path's last level is probed with
// the value, each earlier structure with the previous stage's sorted,
// deduplicated OIDs, down to the structure owning the target's level.
// Each stage's descents and normalization become spans under root, laid
// end to end from the root's start.
func (tc *engineTrace) replay(e *engine.Engine, tr *trace, root int32, v oodb.Value, class string) ([]oodb.OID, error) {
	p := e.Path()
	level, err := exec.PathLevel(p, class)
	if err != nil {
		return nil, err
	}
	assigns := e.Config().Assignments
	ixs := e.Indexes()
	if len(assigns) != len(ixs) {
		return nil, fmt.Errorf("%d assignments, %d structures", len(assigns), len(ixs))
	}
	gi := -1
	for i, a := range assigns {
		if a.A <= level && level <= a.B {
			gi = i
		}
	}
	if gi < 0 {
		return nil, fmt.Errorf("no structure owns level %d", level)
	}
	var off int64
	var cur []oodb.OID
	for i := len(ixs) - 1; i >= gi; i-- {
		ix := ixs[i]
		tcls, hier := class, false
		if i != gi {
			a, _ := ix.Bounds()
			tcls, hier = p.Class(a), true
		}
		out := tc.stageA[:0]
		t0 := time.Now()
		if i == len(ixs)-1 {
			out, err = ix.LookupInto(v, tcls, hier, out, tc.scratch)
			tc.descents++
		} else {
			for _, k := range cur {
				out, err = ix.LookupInto(oodb.RefV(k), tcls, hier, out, tc.scratch)
				if err != nil {
					break
				}
			}
			tc.descents += len(cur)
		}
		d := int64(time.Since(t0))
		if err != nil {
			return nil, err
		}
		tr.replayed("index.LookupInto", root, off, d)
		off += d
		tc.oidsIn += len(out)
		t0 = time.Now()
		out = oodb.SortUnique(out)
		d = int64(time.Since(t0))
		tr.replayed("oodb.SortUnique", root, off, d)
		off += d
		tc.oidsOut += len(out)
		tc.stageA = out
		if i == gi {
			tc.replayOut = append(tc.replayOut[:0], out...)
			return tc.replayOut, nil
		}
		cur = append(tc.stageB[:0], out...)
		tc.stageB = cur
		if len(cur) == 0 {
			return nil, nil
		}
	}
	return nil, nil
}

// layers reports the read- and write-path layer metrics of a traced
// phase. ops counts every op of the phase; storeTotal is the store
// pager's counter movement over it.
func (tc *engineTrace) layers(res *result, agg map[string]*spanAgg, ops int, storeTotal storage.Stats) {
	if tc.mismatch > 0 {
		res.correct = false
	}
	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	res.layer("exec.self_us_per_query", "us", agg["engine.QueryInto"].meanUs(true), uint64(tc.replays))
	res.layer("index.descent_us_per_query", "us", per(nsOf(agg["index.LookupInto"])/1e3, tc.replays), uint64(tc.replays))
	res.layer("index.descents_per_query", "count", per(float64(tc.descents), tc.replays), uint64(tc.replays))
	res.layer("index.pages_per_query", "pages", per(float64(tc.replayIndex.Accesses()), tc.replays), uint64(tc.replays))
	res.layer("oodb.normalize_us_per_query", "us", per(nsOf(agg["oodb.SortUnique"])/1e3, tc.replays), uint64(tc.replays))
	res.layer("oodb.oids_in_per_query", "count", per(float64(tc.oidsIn), tc.replays), uint64(tc.replays))
	res.layer("oodb.oids_out_per_query", "count", per(float64(tc.oidsOut), tc.replays), uint64(tc.replays))
	realStore := diff(storeTotal, tc.replayStore)
	res.layer("storage.store_pages_per_op", "pages", per(float64(realStore.Accesses()), ops), uint64(ops))
	res.layer("index.maint_pages_per_write", "pages", per(float64(tc.writeIndex.Accesses()), tc.writes), uint64(tc.writes))
	res.rep("replay.compared", "count", float64(tc.compared), 0)
	res.rep("replay.mismatched", "count", float64(tc.mismatch), 0)
}

func nsOf(a *spanAgg) float64 {
	if a == nil {
		return 0
	}
	return float64(a.total)
}

// diff is a - b counter by counter.
func diff(a, b storage.Stats) storage.Stats {
	return storage.Stats{
		Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes, Allocs: a.Allocs - b.Allocs,
		Frees: a.Frees - b.Frees, Hits: a.Hits - b.Hits, Fsyncs: a.Fsyncs - b.Fsyncs,
		WALBytes: a.WALBytes - b.WALBytes,
	}
}

// pagesNow is the engine's total page-access count: index structures
// plus object store.
func pagesNow(e *engine.Engine) uint64 {
	return e.IndexStats().Accesses() + e.Store().Pager().Stats().Accesses()
}

// addLoopMetrics reports a measured phase's end-to-end metrics; setupN is
// how many set-up rounds setupS is the median of. The
// gated ones (BENCHMARK.json end_to_end) are the figures that hold still
// between identical runs on a shared host: set-up time, CPU time per op,
// page accesses per op (the paper's unit; for advise the modelled pages
// of the chosen configurations) and the live heap. Wall-clock throughput
// and latency are reported with their sample counts and recorded for
// --compare, but not gated: with 8-40% of the CPU stolen by other
// tenants, their medians moved up to 2x between identical runs of a
// 2-vCPU host, while CPU per op moved under 10%. Reads are labelled
// readLabel: "read", or "advise" for advisor decisions.
func addLoopMetrics(res *result, st *loopStats, readLabel string, setupS float64, setupN int, heapMB, pagesPerOp float64) {
	res.attempted += st.attempted
	res.failed += st.failed
	res.e2e("setup_s", "s", setupS, uint64(setupN))
	res.e2e("cpu_us_per_op", "us", float64(st.cpu.Microseconds())/float64(max(st.attempted, 1)), uint64(st.attempted))
	res.e2e("pages_per_op", "pages", pagesPerOp, uint64(st.attempted))
	res.e2e("live_heap_mb", "MB", heapMB, 0)
	res.rep("ops_per_s", "ops/s", st.opsPerSec(), uint64(len(st.windows)))
	res.rep("p50_us", "us", st.windowQuantileUs(0.5), st.all.n)
	res.rep("p90_us", "us", st.windowQuantileUs(0.9), st.all.n)
	res.rep("p99_us", "us", st.all.quantileUs(0.99), st.all.n)
	if st.read.n > 0 {
		res.rep(readLabel+"_p50_us", "us", st.read.quantileUs(0.5), st.read.n)
		res.rep(readLabel+"_p99_us", "us", st.read.quantileUs(0.99), st.read.n)
	}
	if st.write.n > 0 {
		res.rep("write_p50_us", "us", st.write.quantileUs(0.5), st.write.n)
		res.rep("write_p99_us", "us", st.write.quantileUs(0.99), st.write.n)
	}
	res.rep("fail_ratio", "failed/attempted", float64(st.failed)/float64(max(st.attempted, 1)), uint64(st.attempted))
}

// addOverhead reports the traced phase against the untraced one.
func addOverhead(res *result, untraced, traced *loopStats) {
	res.layer("bench.trace_overhead_ops_per_s", "ops/s", traced.opsPerSec()-untraced.opsPerSec(), 0)
	res.layer("bench.trace_overhead_p50_us", "us", traced.windowQuantileUs(0.5)-untraced.windowQuantileUs(0.5), traced.all.n)
}
