package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/wal"
)

// durable-write: engine.OpenDurable on a fresh directory holding the
// Figure 7 population, WAL policy SyncGroup, a buffer pool of about a
// quarter of the store's pages (the data is larger than the cache) and a
// checkpoint threshold small enough for several automatic checkpoints per
// run. Two clients in a closed loop: 40% updates (Division renames and
// Person re-links on Zipf-hot objects), 15% Person inserts, 15% deletes of
// Persons the client inserted, 30% point queries. Inserts and deletes
// balance, so the population (and the live heap) stays the same size
// however many ops a run completes. Index maintenance, WAL group commit, checkpoints and
// pool misses dominate; it bypasses wire, plan, shard and the advisor.

const (
	durableClients         = 2
	durablePolicy          = wal.SyncGroup
	durableCheckpointBytes = 256 << 10
	durableZipfS           = 1.1
)

func runDurableWrite(rc runConfig) (*result, error) {
	tmpRoot := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	times := setupTimes{}
	var (
		e   *engine.Engine
		dir string
		ld  *durableLoad
		cfg core.Configuration
		g   *gen.Generated
	)
	cleanup := func() {
		if e != nil {
			e.Close()
			e = nil
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	defer cleanup()
	for r, begun := 0, time.Now(); setupMore(r, begun); r++ {
		runtime.GC()
		cleanup()
		t0 := time.Now()
		gg, c, err := selectFigure7(times, dataSeed)
		if err != nil {
			return nil, err
		}
		if dir, err = os.MkdirTemp(tmpRoot, "durable-"); err != nil {
			return nil, err
		}
		d, err := timeIt(func() (err error) {
			e, ld, err = loadDurable(dir, gg, c)
			return err
		})
		if err != nil {
			return nil, err
		}
		times.add("engine.open", d)
		times.add("total", time.Since(t0))
		g, cfg = gg, c
	}
	vals, err := usedValues(e.Store(), "Division", "name")
	if err != nil {
		return nil, err
	}
	res := &result{
		correct: true,
		config:  configString(cfg),
		params: map[string]any{
			"scale": figScale, "objects": e.Store().Len(), "store_pages": ld.pages, "pool_pages": ld.opts.PoolPages,
			"wal_policy": "SyncGroup", "checkpoint_bytes": durableCheckpointBytes, "clients": durableClients, "loop": "closed",
			"mix": "20% Division rename / 20% Person re-link (Zipf-hot) / 15% Person insert / 15% delete / 30% point query",
		},
	}
	clients := make([]*durClient, durableClients)
	for c := range clients {
		rng := rand.New(rand.NewSource(rc.seed*1000 + int64(c)))
		cl := &durClient{rng: rng, expect: map[oodb.OID]map[string][]oodb.Value{}, deleted: map[oodb.OID]bool{}}
		for i, oid := range ld.divisions {
			if i%durableClients == c {
				cl.divs = append(cl.divs, oid)
			}
		}
		for i, oid := range ld.persons {
			if i%durableClients == c {
				cl.persons = append(cl.persons, oid)
			}
		}
		cl.divZipf = rand.NewZipf(rng, durableZipfS, 1, uint64(len(cl.divs)-1))
		cl.personZipf = rand.NewZipf(rng, durableZipfS, 1, uint64(len(cl.persons)-1))
		clients[c] = cl
	}
	step := func(ops engineOps, traces []*trace) func(c int) (opClass, error) {
		return func(c int) (opClass, error) {
			cl := clients[c]
			cl.req++
			req := uint64(c)<<40 | cl.req
			tr := traces[c]
			r := cl.rng.Intn(100)
			switch {
			case r < 20:
				oid := cl.divs[cl.divZipf.Uint64()]
				attrs := map[string][]oodb.Value{"name": {vals[cl.rng.Intn(len(vals))]}}
				return opWrite, ops.write(tr, req, "engine.Update", func() error { return cl.apply(oid, attrs, e.Update(oid, attrs)) })
			case r < 40:
				oid := cl.persons[cl.personZipf.Uint64()]
				attrs := map[string][]oodb.Value{"owns": {oodb.RefV(ld.vehicles[cl.rng.Intn(len(ld.vehicles))])}}
				return opWrite, ops.write(tr, req, "engine.Update", func() error { return cl.apply(oid, attrs, e.Update(oid, attrs)) })
			case r < 55 || (r < 70 && len(cl.inserted) == 0):
				attrs := map[string][]oodb.Value{"owns": {oodb.RefV(ld.vehicles[cl.rng.Intn(len(ld.vehicles))])}}
				return opWrite, ops.write(tr, req, "engine.Insert", func() error {
					oid, err := e.Insert("Person", attrs)
					if err == nil {
						cl.inserted = append(cl.inserted, oid)
					}
					return cl.apply(oid, attrs, err)
				})
			case r < 70:
				k := cl.rng.Intn(len(cl.inserted))
				oid := cl.inserted[k]
				cl.inserted[k] = cl.inserted[len(cl.inserted)-1]
				cl.inserted = cl.inserted[:len(cl.inserted)-1]
				return opWrite, ops.write(tr, req, "engine.Delete", func() error {
					err := e.Delete(oid)
					if err == nil {
						delete(cl.expect, oid)
						cl.deleted[oid] = true
					}
					return err
				})
			default:
				class := "Person"
				if r >= 85 {
					class = "Division"
				}
				var err error
				cl.buf, err = ops.query(tr, req, cl.buf, vals[cl.rng.Intn(len(vals))], class)
				return opRead, err
			}
		}
	}
	untraced := make([]*trace, durableClients)
	phase := time.Duration(rc.seconds) * time.Second
	closedLoop(durableClients, warmup(rc.seconds), step(engineOps{e: e}, untraced))
	p0 := pagesNow(e)
	st := closedLoop(durableClients, phase, step(engineOps{e: e}, untraced))
	pagesPerOp := float64(pagesNow(e)-p0) / float64(max(st.attempted, 1))
	addLoopMetrics(res, st, "read", times.median("total"), len(times["total"]), liveHeapMB(), pagesPerOp)

	if rc.trace {
		tc := newEngineTrace()
		epoch := time.Now()
		traces := make([]*trace, durableClients)
		for c := range traces {
			traces[c] = newTrace(epoch)
		}
		store0, dur0, cp0 := e.Store().Pager().Stats(), e.DurabilityStats(), e.Checkpoints()
		tst := closedLoop(durableClients, phase, step(engineOps{e: e, tc: tc}, traces))
		store := diff(e.Store().Pager().Stats(), store0)
		dur := diff(e.DurabilityStats(), dur0)
		all := newTrace(epoch)
		for _, t := range traces {
			all.absorb(t)
		}
		addSetupLayers(res, times)
		tc.layers(res, aggregate(all.spans), tst.attempted, store)
		w := float64(max(tc.writes, 1))
		res.layer("wal.fsyncs_per_write", "count", float64(dur.Fsyncs)/w, uint64(tc.writes))
		res.layer("wal.bytes_per_write", "B", float64(dur.WALBytes)/w, uint64(tc.writes))
		res.layer("engine.checkpoints", "count", float64(e.Checkpoints()-cp0), 0)
		res.layer("engine.checkpoint_write_ms_p50", "ms", float64(tc.checkpointWrites.quantile(0.5))/1e6, tc.checkpointWrites.n)
		hitRatio := 0.0
		if store.Hits+store.Reads > 0 {
			hitRatio = float64(store.Hits) / float64(store.Hits+store.Reads)
		}
		res.layer("storage.pool_hit_ratio", "ratio", hitRatio, store.Hits+store.Reads)
		readDisk := store.Reads - tc.writeStore.Reads - tc.replayStore.Reads
		res.layer("storage.disk_reads_per_read", "count", float64(readDisk)/float64(max(tc.reads.Load(), 1)), uint64(tc.reads.Load()))
		res.layer("storage.page_writes_per_write", "count", float64(store.Writes)/w, uint64(tc.writes))
		addOverhead(res, st, tst)
		if err := saveTrace(rc, all); err != nil {
			return nil, err
		}
	}

	// Close, reopen (timed), and check every acknowledged write and the
	// indexes against navigation.
	live := e.Store().Len()
	if err := e.Close(); err != nil {
		return nil, err
	}
	e = nil
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	res.rep("disk_bytes_per_object", "B", float64(size)/float64(max(live, 1)), 0)
	var reopenS float64
	d, err := timeIt(func() (err error) {
		e, err = engine.OpenDurable(dir, g.Path.Schema(), g.Path, cfg, model.PaperParams().PageSize, ld.opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	reopenS = d.Seconds()
	res.rep("reopen_s", "s", reopenS, 1)
	if err := durableOracle(e, clients, g.EndValues, live); err != nil {
		fmt.Println("   oracle:", err)
		res.correct = false
	}
	return res, nil
}

type durClient struct {
	rng           *rand.Rand
	req           uint64
	buf           []oodb.OID
	divs, persons []oodb.OID // the objects this client alone updates
	divZipf       *rand.Zipf
	personZipf    *rand.Zipf
	inserted      []oodb.OID // live Persons this client inserted
	expect        map[oodb.OID]map[string][]oodb.Value
	deleted       map[oodb.OID]bool
}

// apply records an acknowledged write's attributes as the object's
// expected state.
func (cl *durClient) apply(oid oodb.OID, attrs map[string][]oodb.Value, err error) error {
	if err != nil {
		return err
	}
	m := cl.expect[oid]
	if m == nil {
		m = map[string][]oodb.Value{}
		cl.expect[oid] = m
	}
	for k, v := range attrs {
		m[k] = v
	}
	return nil
}

type durableLoad struct {
	opts                         engine.DurableOptions
	pages                        int
	divisions, persons, vehicles []oodb.OID
}

// loadDurable writes the generated population into a fresh durable
// engine object by object (children before parents, references remapped
// to the new OIDs), closes it, and reopens it with the measured options.
func loadDurable(dir string, g *gen.Generated, cfg core.Configuration) (*engine.Engine, *durableLoad, error) {
	pageSize := model.PaperParams().PageSize
	s := g.Path.Schema()
	e, err := engine.OpenDurable(dir, s, g.Path, cfg, pageSize, engine.DurableOptions{Policy: wal.SyncNever, CheckpointBytes: -1})
	if err != nil {
		return nil, nil, err
	}
	var objs []*oodb.Object
	if err := g.Store.Objects(func(o *oodb.Object) error { objs = append(objs, o); return nil }); err != nil {
		e.Close()
		return nil, nil, err
	}
	slices.SortFunc(objs, func(a, b *oodb.Object) int { return int(a.OID) - int(b.OID) })
	remap := make(map[oodb.OID]oodb.OID, len(objs))
	ld := &durableLoad{}
	for _, o := range objs {
		attrs := make(map[string][]oodb.Value, len(o.Attrs))
		for k, vs := range o.Attrs {
			out := make([]oodb.Value, len(vs))
			for i, v := range vs {
				if v.Kind == oodb.RefVal {
					v = oodb.RefV(remap[v.Ref])
				}
				out[i] = v
			}
			attrs[k] = out
		}
		oid, err := e.Insert(o.Class, attrs)
		if err != nil {
			e.Close()
			return nil, nil, fmt.Errorf("load %s: %w", o.Class, err)
		}
		remap[o.OID] = oid
		switch o.Class {
		case "Division":
			ld.divisions = append(ld.divisions, oid)
		case "Person":
			ld.persons = append(ld.persons, oid)
		case "Vehicle", "Bus", "Truck":
			ld.vehicles = append(ld.vehicles, oid)
		}
	}
	ps := e.Store().Pager().Stats()
	ld.pages = int(ps.Allocs - ps.Frees)
	if err := e.Close(); err != nil {
		return nil, nil, err
	}
	ld.opts = engine.DurableOptions{Policy: durablePolicy, PoolPages: max(ld.pages/4, 8), CheckpointBytes: durableCheckpointBytes}
	e, err = engine.OpenDurable(dir, s, g.Path, cfg, pageSize, ld.opts)
	if err != nil {
		return nil, nil, err
	}
	return e, ld, nil
}

// durableOracle checks a reopened engine: the live count, every
// acknowledged update and insert, every acknowledged delete, and the
// index answers against navigation.
func durableOracle(e *engine.Engine, clients []*durClient, vals []oodb.Value, live int) error {
	if n := e.Store().Len(); n != live {
		return fmt.Errorf("reopened store holds %d objects, %d were live at close", n, live)
	}
	for c, cl := range clients {
		for oid, attrs := range cl.expect {
			o, err := e.Store().Get(oid)
			if err != nil {
				return fmt.Errorf("client %d: acknowledged object %d: %w", c, oid, err)
			}
			for k, v := range attrs {
				if !oodb.ValuesEqual(o.Values(k), v) {
					return fmt.Errorf("client %d: object %d %s = %v, acknowledged %v", c, oid, k, o.Values(k), v)
				}
			}
		}
		for oid := range cl.deleted {
			if _, err := e.Store().Get(oid); !errors.Is(err, oodb.ErrNotFound) {
				return fmt.Errorf("client %d: deleted object %d still readable (err %v)", c, oid, err)
			}
		}
	}
	return oracleNaive(e, vals)
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
