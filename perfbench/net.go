package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/netclient"
	"repro/internal/netserver"
	"repro/internal/oodb"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/wire"
)

// net-predicate: an in-process netserver on 127.0.0.1 in front of a
// 2-shard in-memory shard.DB built from gen.GenerateShardIn cohorts,
// serving one whole-path NIX as ixserved does. The served path is wire
// path 1; Person.age is registered as path 2. Two pipelined netclient
// connections send in an open loop at a fixed rate (perfbench/expected.json),
// latency timed from each request's due time. The rate is well below the
// saturated rate --calibrate measures (6.5k-8k requests/s on a 2-vCPU
// host): an open loop near saturation turns every burst of CPU stolen by
// other tenants of a shared host into a queue, and its latency then
// varies several-fold between identical runs. The mix: 60% predicate
// trees (Eq; And(Eq, Range); Or of 2-3 Eqs) on Person, 25% point queries,
// 5% range queries, 10% updates of Person.age. Values are Zipf-skewed, so
// identical trees recur inside a coalescing window. Updates touch only an
// attribute off path 1, so every answer is fixed for the run and can be
// checked against the embedded planner afterwards.

const (
	netShards  = 2
	netConns   = 2
	netCohorts = 8
	netZipfS   = 1.1
	netTarget  = "Person"
	// netReplayCap bounds how many traced requests are replayed layer by
	// layer (each replay re-runs plan and shard work on the embedded twin).
	netReplayCap = 20000
)

type netKind uint8

const (
	kPred netKind = iota
	kQuery
	kRange
	kUpdate
)

type netOp struct {
	kind   netKind
	tree   wire.PredNode
	v      oodb.Value
	lo, hi oodb.Value
	oid    oodb.OID
	age    int64
}

// netRec is what the collector records for one request.
type netRec struct {
	due, sent, done time.Time
	err             error
	hash            uint64
	n               int
}

type netSetup struct {
	db      *shard.DB
	srv     *netserver.Server
	conns   []*netclient.Client
	path    *schema.Path
	vals    []oodb.Value
	persons []oodb.OID

	// Set by replay.
	reqBytes, respBytes float64
	replayed            int
}

func (s *netSetup) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Shutdown()
	}
	if s.db != nil {
		s.db.Close()
	}
}

// pages is the fleet's page-access count: every shard's index structures
// and object store.
func (s *netSetup) pages() uint64 {
	n := s.db.IndexStats().Accesses()
	for i := 0; i < s.db.NumShards(); i++ {
		n += s.db.Store(i).Pager().Stats().Accesses()
	}
	return n
}

func netConfig(p *schema.Path) core.Configuration {
	return core.Configuration{Assignments: []core.Assignment{{A: 1, B: p.Len(), Org: cost.NIX}}}
}

func setupNet(times setupTimes, seed int64) (*netSetup, error) {
	s := &netSetup{path: schema.PaperPathOwnsManDivsName()}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	pageSize := model.PaperParams().PageSize
	var stores []*oodb.Store
	d, err := timeIt(func() error {
		var err error
		if stores, err = shard.NewStores(s.path.Schema(), pageSize, netShards); err != nil {
			return err
		}
		part := cohortStats()
		for j := 0; j < netCohorts; j++ {
			g, err := gen.GenerateShardIn(stores[j%netShards], part, figScale, seed+int64(j), netCohorts)
			if err != nil {
				return err
			}
			if len(g.EndValues) > len(s.vals) {
				s.vals = g.EndValues
			}
			s.persons = append(s.persons, g.ByClass["Person"]...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	times.add("gen.generate", d)
	d, err = timeIt(func() (err error) {
		s.db, err = shard.Open(stores, s.path, netConfig(s.path), pageSize, shard.Options{})
		if err != nil {
			return err
		}
		s.srv = netserver.New(s.db, netserver.Options{Path: s.path, ClassOf: func(oid oodb.OID) (string, bool) {
			o, err := s.db.Get(oid)
			if err != nil {
				return "", false
			}
			return o.Class, true
		}})
		if err := s.srv.RegisterPath(1, s.path, s.db, nil); err != nil {
			return err
		}
		agePath, err := schema.NewPath(s.path.Schema(), "Person", "age")
		if err != nil {
			return err
		}
		if err := s.srv.RegisterPath(2, agePath, nil, nil); err != nil {
			return err
		}
		addr, err := s.srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		for c := 0; c < netConns; c++ {
			cl, err := netclient.Dial(addr.String())
			if err != nil {
				return err
			}
			s.conns = append(s.conns, cl)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	times.add("engine.open", d)
	ok = true
	return s, nil
}

// cohortStats is one of netCohorts cohorts of the Figure 7 population:
// per-class cardinalities divided by the cohort count, distinct counts
// capped at what the smaller population admits.
func cohortStats() *model.PathStats {
	part := model.Figure7Stats()
	for l := 1; l <= part.Len(); l++ {
		ls := part.Level(l)
		for i := range ls.Classes {
			cs := &ls.Classes[i]
			cs.N /= netCohorts
			if inst := cs.N * cs.NIN; cs.D > inst {
				cs.D = inst
			}
		}
	}
	return part
}

// netOps draws one connection's op sequence. Connection c updates only
// the Persons at positions ≡ c (mod netConns), so each Person's final age
// is fixed by one connection's order.
func (s *netSetup) netOps(rng *rand.Rand, c, n int) []netOp {
	zv := rand.NewZipf(rng, netZipfS, 1, uint64(len(s.vals)-1))
	var mine []oodb.OID
	for i, oid := range s.persons {
		if i%netConns == c {
			mine = append(mine, oid)
		}
	}
	zp := rand.NewZipf(rng, netZipfS, 1, uint64(len(mine)-1))
	val := func() (oodb.Value, int) {
		k := int(zv.Uint64())
		return s.vals[k], k
	}
	ops := make([]netOp, n)
	for i := range ops {
		r := rng.Intn(100)
		switch {
		case r < 60:
			var tree wire.PredNode
			switch rng.Intn(3) {
			case 0:
				v, _ := val()
				tree = wire.EqPred(1, v)
			case 1:
				v, k := val()
				lo, hi := s.vals[max(k-1, 0)], s.vals[min(k+2, len(s.vals)-1)]
				tree = wire.AndPred(wire.EqPred(1, v), wire.RangePred(1, lo, hi))
			default:
				kids := make([]wire.PredNode, 2+rng.Intn(2))
				for j := range kids {
					v, _ := val()
					kids[j] = wire.EqPred(1, v)
				}
				tree = wire.OrPred(kids...)
			}
			ops[i] = netOp{kind: kPred, tree: tree}
		case r < 85:
			v, _ := val()
			ops[i] = netOp{kind: kQuery, v: v}
		case r < 90:
			k := rng.Intn(len(s.vals) - 3)
			ops[i] = netOp{kind: kRange, lo: s.vals[k], hi: s.vals[k+3]}
		default:
			ops[i] = netOp{kind: kUpdate, oid: mine[zp.Uint64()], age: int64(18 + rng.Intn(70))}
		}
	}
	return ops
}

func (s *netSetup) issue(cl *netclient.Client, op netOp) *netclient.Call {
	switch op.kind {
	case kPred:
		return cl.GoPredicate(&op.tree, netTarget, false)
	case kQuery:
		return cl.GoQuery(op.v, netTarget, false)
	case kRange:
		return cl.GoQueryRange(op.lo, op.hi, netTarget, false)
	default:
		return cl.GoUpdate(op.oid, map[string][]oodb.Value{"age": {oodb.IntV(op.age)}})
	}
}

func hashOIDs(oids []oodb.OID) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, o := range oids {
		for i := range b {
			b[i] = byte(uint64(o) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// runOpen drives every connection through its ops in an open loop at
// rate requests/s in total and returns the per-request records.
func (s *netSetup) runOpen(ops [][]netOp, rate float64) [][]netRec {
	interval := time.Duration(float64(time.Second) / rate)
	recs := make([][]netRec, netConns)
	n := 0
	for c := range ops {
		recs[c] = make([]netRec, len(ops[c]))
		n += len(ops[c])
	}
	// Request i goes to connection i % netConns as that connection's
	// request i / netConns.
	openLoop(time.Now().Add(5*time.Millisecond), interval, n, netConns,
		func(i int) func() error {
			c, j := i%netConns, i/netConns
			call := s.issue(s.conns[c], ops[c][j])
			return func() error {
				oids, err := call.Wait()
				recs[c][j].hash, recs[c][j].n = hashOIDs(oids), len(oids)
				return err
			}
		},
		func() {
			for _, cl := range s.conns {
				cl.Flush()
			}
		},
		func(i int, due, sent, end time.Time, err error) {
			r := &recs[i%netConns][i/netConns]
			r.due, r.sent, r.done, r.err = due, sent, end, err
		})
	return recs
}

// phaseStats folds a phase's records into loop statistics.
func phaseStats(ops [][]netOp, recs [][]netRec, dur time.Duration) (*loopStats, *hist) {
	st := newLoopStats(dur)
	var lag hist
	var start, end time.Time
	for c := range recs {
		if len(recs[c]) > 0 && (start.IsZero() || recs[c][0].due.Before(start)) {
			start = recs[c][0].due
		}
	}
	for c := range recs {
		for i, r := range recs[c] {
			class := opRead
			if ops[c][i].kind == kUpdate {
				class = opWrite
			}
			st.done(class, r.done.Sub(start), r.done.Sub(r.due), r.err)
			lag.record(r.sent.Sub(r.due))
			if r.done.After(end) {
				end = r.done
			}
		}
	}
	st.achieved = float64(st.attempted-st.failed) / end.Sub(start).Seconds()
	return st, &lag
}

func runNetPredicate(rc runConfig) (*result, error) {
	if rc.expected.RatePerS <= 0 {
		return nil, errors.New("perfbench/expected.json records no rate for net-predicate")
	}
	times := setupTimes{}
	var s *netSetup
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	for r, begun := 0, time.Now(); setupMore(r, begun); r++ {
		runtime.GC()
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setupNet(times, dataSeed); err != nil {
			return nil, err
		}
		times.add("total", time.Since(t0))
	}
	rate := rc.expected.RatePerS
	res := &result{
		correct: true,
		config:  configString(netConfig(s.path)),
		params: map[string]any{
			"scale": figScale, "shards": netShards, "cohorts": netCohorts, "connections": netConns,
			"loop": "open", "rate_per_s": rate, "values": len(s.vals), "zipf_s": netZipfS,
			"mix": "60% predicate tree / 25% point query / 5% range query / 10% update (Person.age)",
		},
	}
	rng := rand.New(rand.NewSource(rc.seed))
	perConn := func(d time.Duration) int { return int(rate * d.Seconds() / netConns) }
	draw := func(d time.Duration) [][]netOp {
		ops := make([][]netOp, netConns)
		for c := range ops {
			ops[c] = s.netOps(rng, c, perConn(d))
		}
		return ops
	}
	phase := time.Duration(rc.seconds) * time.Second
	s.runOpen(draw(warmup(rc.seconds)), rate)
	ops := draw(phase)
	cpu0, pages0 := cpuTime(), s.pages()
	recs := s.runOpen(ops, rate)
	st, lag := phaseStats(ops, recs, phase)
	st.cpu = cpuTime() - cpu0
	pagesPerOp := float64(s.pages()-pages0) / float64(max(st.attempted, 1))
	addLoopMetrics(res, st, "read", times.median("total"), len(times["total"]), liveHeapMB(), pagesPerOp)
	res.rep("bench.gen_lag_p99_us", "us", lag.quantileUs(0.99), lag.n)
	allOps, allRecs := ops, recs

	if rc.trace {
		req0, batch0, _ := s.srv.CoalesceStats()
		preq0, desc0 := s.srv.PredicateStats()
		probed0, pruned0 := s.db.PruneCounters()
		tops := draw(phase)
		trecs := s.runOpen(tops, rate)
		tst, tlag := phaseStats(tops, trecs, phase)
		req1, batch1, _ := s.srv.CoalesceStats()
		preq1, desc1 := s.srv.PredicateStats()
		probed1, pruned1 := s.db.PruneCounters()
		addSetupLayers(res, times)
		res.layer("netserver.reqs_per_batch", "count", ratio(req1-req0, batch1-batch0), batch1-batch0)
		res.layer("netserver.descents_per_pred", "count", ratio(desc1-desc0, preq1-preq0), preq1-preq0)
		res.layer("shard.prune_ratio", "ratio", ratio(pruned1-pruned0, probed1-probed0), probed1-probed0)
		res.layer("bench.gen_lag_p99_us", "us", tlag.quantileUs(0.99), tlag.n)
		tr, err := s.replay(tops, trecs)
		if err != nil {
			return nil, err
		}
		agg := aggregate(tr.spans)
		nsMean := func(name string) float64 {
			a := agg[name]
			if a == nil || a.count == 0 {
				return 0
			}
			return float64(a.total) / float64(a.count)
		}
		res.layer("wire.req_encode_ns", "ns", nsMean("wire.AppendRequest"), count(agg, "wire.AppendRequest"))
		res.layer("wire.req_decode_ns", "ns", nsMean("wire.DecodeRequest"), count(agg, "wire.DecodeRequest"))
		res.layer("wire.resp_encode_ns", "ns", nsMean("wire.AppendOKOIDs"), count(agg, "wire.AppendOKOIDs"))
		res.layer("wire.resp_decode_ns", "ns", nsMean("wire.DecodeResponse"), count(agg, "wire.DecodeResponse"))
		res.layer("wire.bytes_per_req", "B", s.reqBytes/float64(max(s.replayed, 1)), uint64(s.replayed))
		res.layer("wire.bytes_per_resp", "B", s.respBytes/float64(max(s.replayed, 1)), uint64(s.replayed))
		waitP50 := 0.0
		if a := agg["net.request"]; a != nil {
			waitP50 = float64(a.ownHist.quantile(0.5)) / 1e3
		}
		res.layer("net.wait_us_p50", "us", waitP50, count(agg, "net.request"))
		res.layer("plan.compile_us", "us", nsMean("plan.Plan")/1e3, count(agg, "plan.Plan"))
		res.layer("plan.execute_us", "us", nsMean("plan.Execute")/1e3, count(agg, "plan.Execute"))
		fan := 0.0
		if a := agg["shard.DB.Query"]; a != nil {
			fan = a.meanUs(true)
		}
		res.layer("shard.fanout_overhead_us", "us", fan, count(agg, "shard.DB.Query"))
		addOverhead(res, st, tst)
		if err := saveTrace(rc, tr); err != nil {
			return nil, err
		}
		allOps = append(allOps, tops...)
		allRecs = append(allRecs, trecs...)
	}

	if err := s.oracle(allOps, allRecs); err != nil {
		fmt.Println("   oracle:", err)
		res.correct = false
	}
	return res, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func count(agg map[string]*spanAgg, name string) uint64 {
	if a := agg[name]; a != nil {
		return uint64(a.count)
	}
	return 0
}

// toPlan rebuilds a wire tree as a planner predicate.
func (s *netSetup) toPlan(n *wire.PredNode) plan.Predicate {
	switch n.Kind {
	case wire.PredEq:
		return plan.Eq(s.path, n.Value)
	case wire.PredRange:
		return plan.Range(s.path, n.Lo, n.Hi)
	default:
		kids := make([]plan.Predicate, len(n.Kids))
		for i := range n.Kids {
			kids[i] = s.toPlan(&n.Kids[i])
		}
		if n.Kind == wire.PredAnd {
			return plan.And(kids...)
		}
		return plan.Or(kids...)
	}
}

// embedded answers a read op on the embedded twin: the planner for
// trees, the shard facade for point and range queries.
func (s *netSetup) embedded(pl *plan.Planner, op netOp) ([]oodb.OID, error) {
	switch op.kind {
	case kPred:
		return pl.Query(s.toPlan(&op.tree), netTarget, false)
	case kQuery:
		return s.db.Query(op.v, netTarget, false)
	default:
		return s.db.QueryRange(op.lo, op.hi, netTarget, false)
	}
}

func opKey(op netOp) string {
	switch op.kind {
	case kPred:
		return string(wire.AppendPredNode([]byte{'p'}, &op.tree))
	case kQuery:
		return "q" + op.v.String()
	default:
		return "r" + op.lo.String() + "|" + op.hi.String()
	}
}

// oracle checks, at rest, every remote read answer against the embedded
// planner or shard facade, a sample of distinct trees against
// plan.NaiveEval over every shard's store, and every Person's final age
// against the last acknowledged update.
func (s *netSetup) oracle(ops [][]netOp, recs [][]netRec) error {
	pl := plan.NewPlanner(nil)
	if err := pl.Register(s.path, s.db, nil); err != nil {
		return err
	}
	type want struct {
		hash uint64
		n    int
	}
	expect := map[string]want{}
	naiveChecked := 0
	lastAge := map[oodb.OID]int64{}
	for c := range ops {
		for i, op := range ops[c] {
			r := recs[c][i]
			if r.err != nil {
				continue // counted in failed
			}
			if op.kind == kUpdate {
				lastAge[op.oid] = op.age
				continue
			}
			key := opKey(op)
			w, ok := expect[key]
			if !ok {
				got, err := s.embedded(pl, op)
				if err != nil {
					return err
				}
				w = want{hashOIDs(got), len(got)}
				expect[key] = w
				if op.kind == kPred && naiveChecked < 300 {
					naiveChecked++
					var naive []oodb.OID
					for sh := 0; sh < s.db.NumShards(); sh++ {
						part, err := plan.NaiveEval(s.db.Store(sh), s.toPlan(&op.tree), netTarget, false)
						if err != nil {
							return err
						}
						naive = append(naive, part...)
					}
					slices.Sort(naive)
					if !slices.Equal(naive, got) {
						return fmt.Errorf("tree %s: planner %d OIDs, NaiveEval %d", s.toPlan(&op.tree), len(got), len(naive))
					}
				}
			}
			if r.hash != w.hash || r.n != w.n {
				return fmt.Errorf("connection %d request %d (kind %d): remote answer of %d OIDs differs from the embedded answer of %d",
					c, i, op.kind, r.n, w.n)
			}
		}
	}
	for oid, age := range lastAge {
		o, err := s.db.Get(oid)
		if err != nil {
			return err
		}
		if got := o.Values("age"); len(got) != 1 || got[0] != oodb.IntV(age) {
			return fmt.Errorf("Person %d age %v, last acknowledged %d", oid, got, age)
		}
	}
	return nil
}

// replay times, for a bounded sample of the traced phase's requests, the
// wire encode/decode of the request and its response, plan compile and
// execute (trees) or the shard fan-out (point queries) on the embedded
// twin, and builds each request's span tree: the root spans due time to
// answer; its self time is the wait not explained by the replayed work.
func (s *netSetup) replay(ops [][]netOp, recs [][]netRec) (*trace, error) {
	var epoch time.Time
	total := 0
	for c := range recs {
		total += len(recs[c])
		if len(recs[c]) > 0 && (epoch.IsZero() || recs[c][0].due.Before(epoch)) {
			epoch = recs[c][0].due
		}
	}
	stride := max(1, (total+netReplayCap-1)/netReplayCap)
	tr := newTrace(epoch)
	pl := plan.NewPlanner(nil)
	if err := pl.Register(s.path, s.db, nil); err != nil {
		return nil, err
	}
	var (
		buf  []byte
		req  wire.Request
		resp wire.Response
	)
	const reps = 16 // wire calls take ~100 ns; time a batch and divide
	timed := func(f func()) int64 {
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			f()
		}
		return int64(time.Since(t0)) / reps
	}
	s.reqBytes, s.respBytes, s.replayed = 0, 0, 0
	for c := range ops {
		for i := 0; i < len(ops[c]); i += stride {
			op, r := ops[c][i], recs[c][i]
			if r.err != nil {
				continue
			}
			id := uint64(c)<<40 | uint64(i)
			root := tr.add("net.request", -1, id, tr.at(r.due), tr.at(r.done))
			if root < 0 {
				return tr, nil
			}
			var off int64
			child := func(name string, d int64) int32 {
				sp := tr.replayed(name, root, off, d)
				off += d
				return sp
			}
			encode := func() {
				switch op.kind {
				case kPred:
					buf = wire.AppendPredicate(buf[:0], id, &op.tree, netTarget, false)
				case kQuery:
					buf = wire.AppendQuery(buf[:0], id, op.v, netTarget, false)
				case kRange:
					buf = wire.AppendQueryRange(buf[:0], id, op.lo, op.hi, netTarget, false)
				default:
					buf = wire.AppendUpdate(buf[:0], id, op.oid, map[string][]oodb.Value{"age": {oodb.IntV(op.age)}})
				}
			}
			child("wire.AppendRequest", timed(encode))
			s.reqBytes += float64(len(wire.AppendFrame(nil, buf)))
			var derr error
			child("wire.DecodeRequest", timed(func() { derr = wire.DecodeRequest(buf, &req) }))
			if derr != nil {
				return nil, derr
			}
			var answer []oodb.OID
			switch op.kind {
			case kPred:
				var p *plan.Plan
				var err error
				t0 := time.Now()
				p, err = pl.Plan(s.toPlan(&op.tree), netTarget, false)
				child("plan.Plan", int64(time.Since(t0)))
				if err != nil {
					return nil, err
				}
				t0 = time.Now()
				answer, err = p.Execute()
				child("plan.Execute", int64(time.Since(t0)))
				if err != nil {
					return nil, err
				}
			case kQuery:
				var err error
				t0 := time.Now()
				answer, err = s.db.Query(op.v, netTarget, false)
				d := int64(time.Since(t0))
				if err != nil {
					return nil, err
				}
				fan := tr.replayed("shard.DB.Query", root, off, d)
				for sh := 0; sh < s.db.NumShards(); sh++ {
					t0 = time.Now()
					if _, err := s.db.Shard(sh).Query(op.v, netTarget, false); err != nil {
						return nil, err
					}
					tr.replayed("engine.Query", fan, 0, int64(time.Since(t0)))
				}
				off += d
			case kRange:
				var err error
				t0 := time.Now()
				answer, err = s.db.QueryRange(op.lo, op.hi, netTarget, false)
				child("shard.DB.QueryRange", int64(time.Since(t0)))
				if err != nil {
					return nil, err
				}
			}
			if op.kind != kUpdate && (hashOIDs(answer) != r.hash || len(answer) != r.n) {
				return nil, fmt.Errorf("replayed answer of %d OIDs differs from the remote answer of %d", len(answer), r.n)
			}
			child("wire.AppendOKOIDs", timed(func() { buf = wire.AppendOKOIDs(buf[:0], id, answer) }))
			s.respBytes += float64(len(wire.AppendFrame(nil, buf)))
			child("wire.DecodeResponse", timed(func() { derr = wire.DecodeResponse(buf, &resp) }))
			if derr != nil {
				return nil, derr
			}
			s.replayed++
		}
	}
	return tr, nil
}

// calibrateNet measures the saturated rate: both connections keep a deep
// pipeline full for the given seconds.
func calibrateNet(seed int64, seconds int) (float64, error) {
	s, err := setupNet(setupTimes{}, dataSeed)
	if err != nil {
		return 0, err
	}
	defer s.close()
	const depth = 64
	rng := rand.New(rand.NewSource(seed))
	dur := time.Duration(seconds) * time.Second
	var wg sync.WaitGroup
	counts := make([]int, netConns)
	start := time.Now()
	for c := 0; c < netConns; c++ {
		ops := s.netOps(rng, c, 1<<20)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := s.conns[c]
			var inflight []*netclient.Call
			for i := 0; time.Since(start) < dur; i++ {
				inflight = append(inflight, s.issue(cl, ops[i%len(ops)]))
				if len(inflight) == depth {
					cl.Flush()
					for _, call := range inflight {
						call.Wait()
					}
					counts[c] += len(inflight)
					inflight = inflight[:0]
				}
			}
			cl.Flush()
			for _, call := range inflight {
				call.Wait()
			}
			counts[c] += len(inflight)
		}(c)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / time.Since(start).Seconds(), nil
}
