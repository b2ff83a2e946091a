package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/oodb"
)

// embedded-mix: an in-process engine on the Figure 7 population serving
// the configuration stats.Collect + core.Select pick, under a closed loop
// of two clients: 55% Person point queries, 30% Division point queries,
// 5% QueryRange, 5% inserts, 5% deletes, values drawn uniformly. It is the
// read hot path (exec -> index descent -> oodb.SortUnique) with everything
// in memory, and bypasses wire, plan, shard, wal and the advisor.

const embeddedClients = 2

func runEmbeddedMix(rc runConfig) (*result, error) {
	times := setupTimes{}
	var (
		g   *gen.Generated
		e   *engine.Engine
		cfg string
	)
	for r, begun := 0, time.Now(); setupMore(r, begun); r++ {
		runtime.GC()
		if e != nil {
			if err := e.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		gg, c, err := selectFigure7(times, dataSeed)
		if err != nil {
			return nil, err
		}
		d, err := timeIt(func() (err error) {
			e, err = engine.New(gg.Store, gg.Path, c, model.PaperParams().PageSize, engine.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		times.add("engine.open", d)
		times.add("total", time.Since(t0))
		g, cfg = gg, configString(c)
	}
	defer e.Close()

	vals, err := usedValues(g.Store, "Division", "name")
	if err != nil {
		return nil, err
	}
	res := &result{
		correct: true,
		config:  cfg,
		params: map[string]any{
			"scale": figScale, "objects": g.Store.Len(), "ending_values": len(g.EndValues), "query_values": len(vals),
			"clients": embeddedClients, "loop": "closed",
			"mix": "55% Person point / 30% Division point / 5% QueryRange / 5% insert / 5% delete",
		},
	}
	clients := make([]*embClient, embeddedClients)
	for c := range clients {
		clients[c] = &embClient{rng: rand.New(rand.NewSource(rc.seed*1000 + int64(c)))}
	}
	step := func(ops engineOps, traces []*trace) func(c int) (opClass, error) {
		return func(c int) (opClass, error) {
			cl := clients[c]
			cl.req++
			req := uint64(c)<<40 | cl.req
			tr := traces[c]
			r := cl.rng.Intn(100)
			v := vals[cl.rng.Intn(len(vals))]
			var err error
			switch {
			case r < 55:
				cl.buf, err = ops.query(tr, req, cl.buf, v, "Person")
				return opRead, err
			case r < 85:
				cl.buf, err = ops.query(tr, req, cl.buf, v, "Division")
				return opRead, err
			case r < 90:
				i := cl.rng.Intn(len(vals) - 2)
				return opRead, ops.queryRange(tr, req, vals[i], vals[i+2], "Person")
			case r < 95 || len(cl.pending) == 0:
				return opWrite, ops.write(tr, req, "engine.Insert", func() error {
					oid, err := e.Insert("Division", map[string][]oodb.Value{"name": {v}})
					if err == nil {
						cl.pending = append(cl.pending, oid)
					}
					return err
				})
			default:
				k := cl.rng.Intn(len(cl.pending))
				oid := cl.pending[k]
				cl.pending[k] = cl.pending[len(cl.pending)-1]
				cl.pending = cl.pending[:len(cl.pending)-1]
				return opWrite, ops.write(tr, req, "engine.Delete", func() error { return e.Delete(oid) })
			}
		}
	}
	untracedTraces := make([]*trace, embeddedClients)
	phase := time.Duration(rc.seconds) * time.Second

	closedLoop(embeddedClients, warmup(rc.seconds), step(engineOps{e: e}, untracedTraces))
	p0 := pagesNow(e)
	st := closedLoop(embeddedClients, phase, step(engineOps{e: e}, untracedTraces))
	pagesPerOp := float64(pagesNow(e)-p0) / float64(max(st.attempted, 1))
	addLoopMetrics(res, st, "read", times.median("total"), len(times["total"]), liveHeapMB(), pagesPerOp)

	if rc.trace {
		tc := newEngineTrace()
		epoch := time.Now()
		traces := make([]*trace, embeddedClients)
		for c := range traces {
			traces[c] = newTrace(epoch)
		}
		store0 := e.Store().Pager().Stats()
		tst := closedLoop(embeddedClients, phase, step(engineOps{e: e, tc: tc}, traces))
		all := newTrace(epoch)
		for _, t := range traces {
			all.absorb(t)
		}
		agg := aggregate(all.spans)
		addSetupLayers(res, times)
		tc.layers(res, agg, tst.attempted, diff(e.Store().Pager().Stats(), store0))
		addOverhead(res, st, tst)
		if err := saveTrace(rc, all); err != nil {
			return nil, err
		}
	}

	// Oracle, at rest: every ending value, whole path and ending class,
	// indexed answer against forward navigation.
	if err := oracleNaive(e, g.EndValues); err != nil {
		fmt.Println("   oracle:", err)
		res.correct = false
	}
	return res, nil
}

type embClient struct {
	rng     *rand.Rand
	req     uint64
	buf     []oodb.OID
	pending []oodb.OID
}

// oracleNaive checks engine.Query against exec.NaiveQuery for every value
// and both the path's first and last class.
func oracleNaive(e *engine.Engine, vals []oodb.Value) error {
	p := e.Path()
	for _, v := range vals {
		for _, class := range []string{p.Class(1), p.Class(p.Len())} {
			got, err := e.Query(v, class, false)
			if err != nil {
				return err
			}
			want, err := exec.NaiveQuery(e.Store(), p, v, class, false)
			if err != nil {
				return err
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("Query(%v, %s): %d OIDs, naive navigation %d", v, class, len(got), len(want))
			}
		}
	}
	return nil
}

// addSetupLayers reports the median set-up time of each step.
func addSetupLayers(res *result, times setupTimes) {
	res.layer("gen.generate_s", "s", times.median("gen.generate"), uint64(len(times["gen.generate"])))
	res.layer("stats.collect_s", "s", times.median("stats.collect"), uint64(len(times["stats.collect"])))
	res.layer("core.select_s", "s", times.median("core.select"), uint64(len(times["core.select"])))
	res.layer("engine.open_s", "s", times.median("engine.open"), uint64(len(times["engine.open"])))
}

// usedValues returns the distinct values attr holds on the class's
// objects, sorted: the ending values a point query can find. The
// generator's value pool is wider than the values the draw leaves in use,
// and a query for an unused value returns nothing in a few microseconds;
// querying only used values keeps the latency distribution from straddling
// that empty-answer mode.
func usedValues(st *oodb.Store, class, attr string) ([]oodb.Value, error) {
	seen := map[oodb.Value]bool{}
	var out []oodb.Value
	for _, oid := range st.OIDsOfClass(class) {
		o, err := st.Get(oid)
		if err != nil {
			return nil, err
		}
		for _, v := range o.Values(attr) {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	slices.SortFunc(out, func(a, b oodb.Value) int { return strings.Compare(a.Str, b.Str) })
	return out, nil
}
