package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/model"
)

// advise: one caller; each op is one advisor decision, core.SelectBatch
// (the call engine.AdviseObserved makes) over 8 chain paths of length
// 4-12 drawn from a seeded pool, each with freshly seeded per-class loads.
// It loads cost (matrix construction) and core (the search), which do
// almost no work in the other workloads because their path has length 4;
// it touches no store, index, wire or log.

const (
	advisePool      = 32
	adviseBatch     = 8
	adviseMinLen    = 4
	adviseMaxLen    = 12
	adviseExactMaxN = 12 // Exhaustive cross-check only up to 2^11 configurations
	adviseSampleCap = 150
)

func runAdvise(rc runConfig) (*result, error) {
	times := setupTimes{}
	var pool []*model.PathStats
	for r, begun := 0, time.Now(); setupMore(r, begun); r++ {
		runtime.GC()
		t0 := time.Now()
		p, err := chainPool(dataSeed)
		if err != nil {
			return nil, err
		}
		times.add("gen.generate", time.Since(t0))
		// An advisor starting up decides once for every path it knows.
		d, err := timeIt(func() error {
			_, err := core.SelectBatch(p, cost.Organizations)
			return err
		})
		if err != nil {
			return nil, err
		}
		times.add("core.select", d)
		times.add("total", time.Since(t0))
		pool = p
	}
	res := &result{
		correct: true,
		config:  fmt.Sprint(cost.Organizations),
		params: map[string]any{
			"pool_paths": advisePool, "batch": adviseBatch, "path_lengths": fmt.Sprintf("%d-%d", adviseMinLen, adviseMaxLen),
			"clients": 1, "loop": "closed",
		},
	}
	var (
		samples  []adviseSample
		opIndex  int
		sampling bool
		// modelledPages sums, over the measured decisions, the cost-model
		// page accesses of the configurations chosen for their paths.
		modelledPages float64
		tc            *adviseTrace
		tr            *trace
	)
	step := func(int) (opClass, error) {
		opIndex++
		pss := adviseInputs(rc.seed, opIndex, pool)
		req := uint64(opIndex)
		t0 := time.Now()
		out, err := core.SelectBatch(pss, cost.Organizations)
		t1 := time.Now()
		if err != nil {
			return opRead, err
		}
		if sampling {
			for _, r := range out {
				modelledPages += r.Best.Cost
			}
		}
		if sampling && opIndex%8 == 0 && len(samples) < adviseSampleCap {
			costs := make([]float64, len(out))
			for i, r := range out {
				costs[i] = r.Best.Cost
			}
			samples = append(samples, adviseSample{opIndex, costs})
		}
		if tc != nil {
			if root := tr.add("core.SelectBatch", -1, req, tr.at(t0), tr.at(t1)); root >= 0 {
				if err := tc.replay(tr, root, pss, out); err != nil {
					return opRead, err
				}
			}
		}
		return opRead, nil
	}
	phase := time.Duration(rc.seconds) * time.Second
	closedLoop(1, warmup(rc.seconds), step)
	sampling = true
	st := closedLoop(1, phase, step)
	sampling = false
	addLoopMetrics(res, st, "advise", times.median("total"), len(times["total"]), liveHeapMB(), modelledPages/float64(max(st.attempted, 1)))

	if rc.trace {
		tc = &adviseTrace{}
		tr = newTrace(time.Now())
		tst := closedLoop(1, phase, step)
		agg := aggregate(tr.spans)
		addSetupLayers(res, times)
		n := float64(max(tc.paths, 1))
		res.layer("cost.matrix_us_per_path", "us", nsOf(agg["cost.NewMatrixFromStats"])/1e3/n, uint64(tc.paths))
		res.layer("core.search_us_per_path", "us", nsOf(agg["core.OptIndConInto"])/1e3/n, uint64(tc.paths))
		res.layer("core.configs_evaluated_per_path", "count", float64(tc.evaluated)/n, uint64(tc.paths))
		res.layer("core.pruned_per_path", "count", float64(tc.pruned)/n, uint64(tc.paths))
		res.rep("replay.mismatched", "count", float64(tc.mismatch), 0)
		if tc.mismatch > 0 {
			res.correct = false
		}
		addOverhead(res, st, tst)
		if err := saveTrace(rc, tr); err != nil {
			return nil, err
		}
	}

	// Oracle: the sampled decisions' costs against DP, and Exhaustive
	// where the search space is small enough to enumerate.
	if err := adviseOracle(rc.seed, pool, samples); err != nil {
		fmt.Println("   oracle:", err)
		res.correct = false
	}
	res.rep("oracle.decisions_checked", "count", float64(len(samples)), 0)
	return res, nil
}

// chainPool builds the seeded pool of chain paths decisions draw from.
func chainPool(seed int64) ([]*model.PathStats, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*model.PathStats, advisePool)
	for i := range pool {
		n := adviseMinLen + rng.Intn(adviseMaxLen-adviseMinLen+1)
		nObj := float64(5000 + rng.Intn(45000))
		d := nObj / float64(2+rng.Intn(19))
		fan := float64(1 + rng.Intn(3))
		ps, err := experiments.ChainStats(n, nObj, d, fan, model.Load{Alpha: 0.3, Beta: 0.1, Gamma: 0.1}, model.PaperParams())
		if err != nil {
			return nil, err
		}
		pool[i] = ps
	}
	return pool, nil
}

// adviseInputs draws decision op's batch: paths from the pool, each
// cloned and given seeded per-class loads. Each decision has its own
// seed, so the oracle can redraw a sampled decision's inputs afterwards.
func adviseInputs(seed int64, op int, pool []*model.PathStats) []*model.PathStats {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(op)))
	pss := make([]*model.PathStats, adviseBatch)
	for i := range pss {
		ps := pool[rng.Intn(len(pool))].Clone()
		for l := 1; l <= ps.Len(); l++ {
			loads := ps.Level(l).Loads
			for k := range loads {
				loads[k] = model.Load{Alpha: rng.Float64(), Beta: rng.Float64() / 2, Gamma: rng.Float64() / 2}
			}
		}
		pss[i] = ps
	}
	return pss
}

// adviseSample is one decision the oracle re-checks: its op index and
// the cost SelectBatch chose per path.
type adviseSample struct {
	op    int
	costs []float64
}

func adviseOracle(seed int64, pool []*model.PathStats, samples []adviseSample) error {
	for si, s := range samples {
		for i, ps := range adviseInputs(seed, s.op, pool) {
			m, err := core.NewMatrixFromStats(ps, cost.Organizations)
			if err != nil {
				return err
			}
			got := s.costs[i]
			if want := m.DP().Best.Cost; !costEqual(got, want) {
				return fmt.Errorf("decision %d path %d (n=%d): SelectBatch cost %v, DP %v", si, i, ps.Len(), got, want)
			}
			if ps.Len() <= adviseExactMaxN {
				if want := m.Exhaustive().Best.Cost; !costEqual(got, want) {
					return fmt.Errorf("decision %d path %d (n=%d): SelectBatch cost %v, Exhaustive %v", si, i, ps.Len(), got, want)
				}
			}
		}
	}
	return nil
}

// costEqual compares configuration costs summed in different orders.
func costEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// adviseTrace replays each decision path by path: the matrix build
// (cost) and the branch-and-bound search (core) each become a span.
type adviseTrace struct {
	paths, evaluated, pruned, mismatch int
	res                                core.Result
}

func (tc *adviseTrace) replay(tr *trace, root int32, pss []*model.PathStats, out []core.Result) error {
	var off int64
	for i, ps := range pss {
		t0 := time.Now()
		m, err := core.NewMatrixFromStats(ps, cost.Organizations)
		d := int64(time.Since(t0))
		if err != nil {
			return err
		}
		tr.replayed("cost.NewMatrixFromStats", root, off, d)
		off += d
		t0 = time.Now()
		m.OptIndConInto(&tc.res)
		d = int64(time.Since(t0))
		tr.replayed("core.OptIndConInto", root, off, d)
		off += d
		tc.paths++
		tc.evaluated += tc.res.Stats.Evaluated
		tc.pruned += tc.res.Stats.Pruned
		if !costEqual(tc.res.Best.Cost, out[i].Best.Cost) {
			tc.mismatch++
		}
	}
	return nil
}
