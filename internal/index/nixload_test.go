package index_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/schema"
)

// newNIX allocates an empty whole-path NIX over p.
func newNIX(t *testing.T, st *oodb.Store, p *schema.Path) *index.NestedInheritedIndex {
	t.Helper()
	ix, err := index.New(st, p, 1, p.Len(), cost.NIX, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return ix.(*index.NestedInheritedIndex)
}

// bulkNIX builds a whole-path NIX through index.Load, the bulk path.
func bulkNIX(t *testing.T, st *oodb.Store, p *schema.Path) *index.NestedInheritedIndex {
	t.Helper()
	nx := newNIX(t, st, p)
	if err := index.Load(st, p, nx); err != nil {
		t.Fatal(err)
	}
	return nx
}

// incrementalNIX builds the same NIX by calling OnInsert on every object
// in Load's order (deepest level first, ascending OIDs), each call
// writing through to the trees as live maintenance does.
func incrementalNIX(t *testing.T, st *oodb.Store, p *schema.Path) *index.NestedInheritedIndex {
	t.Helper()
	nx := newNIX(t, st, p)
	for l := p.Len(); l >= 1; l-- {
		for _, cn := range p.HierarchyAt(l) {
			for _, oid := range st.OIDsOfClass(cn) {
				obj, _ := st.Peek(oid)
				if err := nx.OnInsert(obj); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return nx
}

type treeEntry struct{ key, val []byte }

func entries(ascend func(func(k, v []byte) bool)) []treeEntry {
	var out []treeEntry
	ascend(func(k, v []byte) bool {
		out = append(out, treeEntry{slices.Clone(k), slices.Clone(v)})
		return true
	})
	return out
}

// assertSameNIX requires byte-identical primary records, 3-tuples equal
// as sets (parents and pointers; pointer order follows map iteration),
// and four valid trees.
func assertSameNIX(t *testing.T, label string, bulk, inc *index.NestedInheritedIndex) {
	t.Helper()
	for _, nx := range []*index.NestedInheritedIndex{bulk, inc} {
		if err := nx.PrimaryTree().Validate(); err != nil {
			t.Fatalf("%s: primary tree: %v", label, err)
		}
		if err := nx.AuxTree().Validate(); err != nil {
			t.Fatalf("%s: aux tree: %v", label, err)
		}
	}
	bp, ip := entries(bulk.PrimaryTree().Ascend), entries(inc.PrimaryTree().Ascend)
	if len(bp) != len(ip) {
		t.Fatalf("%s: %d primary records bulk-loaded, %d incremental", label, len(bp), len(ip))
	}
	for i := range bp {
		if !bytes.Equal(bp[i].key, ip[i].key) || !bytes.Equal(bp[i].val, ip[i].val) {
			t.Fatalf("%s: primary record %d differs: key %x vs %x (%d vs %d bytes)",
				label, i, bp[i].key, ip[i].key, len(bp[i].val), len(ip[i].val))
		}
	}
	ba, ia := entries(bulk.AuxTree().Ascend), entries(inc.AuxTree().Ascend)
	if len(ba) != len(ia) {
		t.Fatalf("%s: %d 3-tuples bulk-loaded, %d incremental", label, len(ba), len(ia))
	}
	for i := range ba {
		if !bytes.Equal(ba[i].key, ia[i].key) {
			t.Fatalf("%s: 3-tuple %d keyed %x vs %x", label, i, ba[i].key, ia[i].key)
		}
		bpar, bptr, err := index.DecodeAuxTuple(ba[i].val)
		if err != nil {
			t.Fatal(err)
		}
		ipar, iptr, err := index.DecodeAuxTuple(ia[i].val)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(bptr)
		slices.Sort(iptr)
		if !slices.Equal(bpar, ipar) || !slices.Equal(bptr, iptr) {
			t.Fatalf("%s: 3-tuple %x differs: parents %v vs %v, %d vs %d pointers",
				label, ba[i].key, bpar, ipar, len(bptr), len(iptr))
		}
	}
}

// assertNaive requires every lookup on nx to match naive navigation.
func assertNaive(t *testing.T, label string, nx *index.NestedInheritedIndex, st *oodb.Store, p *schema.Path, values []oodb.Value) {
	t.Helper()
	for _, v := range values {
		for _, tc := range []struct {
			class string
			hier  bool
		}{{"Person", false}, {"Vehicle", true}, {"Truck", false}, {"Company", false}, {"Division", false}} {
			want, err := exec.NaiveQuery(st, p, v, tc.class, tc.hier)
			if err != nil {
				t.Fatal(err)
			}
			got, err := nx.Lookup(v, tc.class, tc.hier)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Lookup(%v, %s, hier=%v) = %d OIDs, naive %d", label, v, tc.class, tc.hier, len(got), len(want))
			}
		}
	}
}

// mutate applies one seeded insert/update/delete sequence to the store,
// maintaining every index in nxs, and returns the ending values it
// introduced.
func mutate(t *testing.T, st *oodb.Store, values []oodb.Value, seed int64, ops int, nxs ...*index.NestedInheritedIndex) []oodb.Value {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func(classes ...string) (oodb.OID, bool) {
		oids := st.OIDsOfClass(classes[rng.Intn(len(classes))])
		if len(oids) == 0 {
			return 0, false
		}
		return oids[rng.Intn(len(oids))], true
	}
	insert := func(class string, attrs map[string][]oodb.Value) oodb.OID {
		oid, err := st.Insert(class, attrs)
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := st.Peek(oid)
		for _, nx := range nxs {
			if err := nx.OnInsert(obj); err != nil {
				t.Fatalf("op insert %s: %v", class, err)
			}
		}
		return oid
	}
	update := func(oid oodb.OID, attr string, vals ...oodb.Value) {
		old, upd, err := st.Update(oid, map[string][]oodb.Value{attr: vals})
		if err != nil {
			t.Fatal(err)
		}
		for _, nx := range nxs {
			if err := nx.OnUpdate(old, upd); err != nil {
				t.Fatalf("op update %s.%s: %v", old.Class, attr, err)
			}
		}
	}
	var fresh []oodb.Value
	for i := 0; i < ops; i++ {
		switch rng.Intn(6) {
		case 0: // a whole new chain
			v := values[rng.Intn(len(values))]
			if rng.Intn(2) == 0 {
				v = oodb.StrV(fmt.Sprintf("fresh-%d", i))
				fresh = append(fresh, v)
			}
			div := insert("Division", map[string][]oodb.Value{"name": {v}})
			comp := insert("Company", map[string][]oodb.Value{"divs": {oodb.RefV(div)}})
			veh := insert([]string{"Vehicle", "Bus", "Truck"}[rng.Intn(3)], map[string][]oodb.Value{"man": {oodb.RefV(comp)}})
			insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(veh)}})
		case 1: // delete
			oid, ok := pick("Division", "Company", "Vehicle", "Bus", "Truck", "Person")
			if !ok {
				continue
			}
			obj, _ := st.Peek(oid)
			if err := st.Delete(oid); err != nil {
				t.Fatal(err)
			}
			for _, nx := range nxs {
				if err := nx.OnDelete(obj); err != nil {
					t.Fatalf("op delete %s: %v", obj.Class, err)
				}
			}
		case 2: // ending value
			if div, ok := pick("Division"); ok {
				update(div, "name", values[rng.Intn(len(values))])
			}
		case 3: // re-link divisions
			comp, ok1 := pick("Company")
			div, ok2 := pick("Division")
			if ok1 && ok2 {
				update(comp, "divs", oodb.RefV(div))
			}
		case 4: // re-link manufacturer
			veh, ok1 := pick("Vehicle", "Bus", "Truck")
			comp, ok2 := pick("Company")
			if ok1 && ok2 {
				update(veh, "man", oodb.RefV(comp))
			}
		default: // re-link ownership
			per, ok1 := pick("Person")
			veh, ok2 := pick("Vehicle", "Bus", "Truck")
			if ok1 && ok2 {
				update(per, "owns", oodb.RefV(veh))
			}
		}
	}
	return fresh
}

// TestNIXBulkLoadMatchesIncremental pins the bulk load to the insertion
// algorithm it buffers: on the Figure 7 population and on both stores of
// the 8-cohort, 2-shard population (strided OIDs), a NIX built by
// index.Load equals one built by writing every OnInsert through — the
// same primary records byte for byte, the same 3-tuples — and the two
// stay equal, and equal to naive navigation, under one seeded
// insert/update/delete sequence applied to both.
func TestNIXBulkLoadMatchesIncremental(t *testing.T) {
	type population struct {
		name   string
		st     *oodb.Store
		p      *schema.Path
		values []oodb.Value
	}
	var pops []population
	g, err := gen.Generate(model.Figure7Stats(), 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	pops = append(pops, population{"figure7", g.Store, g.Path, g.EndValues})

	const cohorts, shards = 8, 2
	part := model.Figure7Stats()
	for l := 1; l <= part.Len(); l++ {
		ls := part.Level(l)
		for i := range ls.Classes {
			cs := &ls.Classes[i]
			cs.N /= cohorts
			if inst := cs.N * cs.NIN; cs.D > inst {
				cs.D = inst
			}
		}
	}
	sharded := make([]population, shards)
	for i := range sharded {
		st, err := oodb.NewStoreSeq(part.Path.Schema(), part.Params.PageSize, oodb.OID(i+1), shards)
		if err != nil {
			t.Fatal(err)
		}
		sharded[i] = population{name: fmt.Sprintf("cohorts/shard%d", i), st: st, p: part.Path}
	}
	for j := 0; j < cohorts; j++ {
		cg, err := gen.GenerateShardIn(sharded[j%shards].st, part, 0.02, int64(1+j), cohorts)
		if err != nil {
			t.Fatal(err)
		}
		if len(cg.EndValues) > len(sharded[j%shards].values) {
			sharded[j%shards].values = cg.EndValues
		}
	}
	pops = append(pops, sharded...)

	for i, pop := range pops {
		t.Run(pop.name, func(t *testing.T) {
			bulk := bulkNIX(t, pop.st, pop.p)
			inc := incrementalNIX(t, pop.st, pop.p)
			if bulk.PrimaryTree().Len() == 0 || bulk.AuxTree().Len() == 0 {
				t.Fatal("empty index built")
			}
			assertSameNIX(t, "after load", bulk, inc)
			assertNaive(t, "bulk after load", bulk, pop.st, pop.p, pop.values)

			fresh := mutate(t, pop.st, pop.values, int64(100+i), 300, bulk, inc)
			values := append(slices.Clone(pop.values), fresh...)
			assertSameNIX(t, "after mutations", bulk, inc)
			assertNaive(t, "bulk after mutations", bulk, pop.st, pop.p, values)
			assertNaive(t, "incremental after mutations", inc, pop.st, pop.p, values)
		})
	}
}

// TestNIXBulkLoadGeometry pins the tree the bulk load leaves: at Figure 7
// scale 0.05, seed 1, the whole-path NIX's primary records fit one leaf
// (height 1), since each record is written once, in key order, instead of
// growing in place and splitting leaves as it does.
func TestNIXBulkLoadGeometry(t *testing.T) {
	g, err := gen.Generate(model.Figure7Stats(), 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	nx := bulkNIX(t, g.Store, g.Path)
	if h := nx.PrimaryTree().Height(); h != 1 {
		t.Fatalf("primary tree height %d over %d records (%d leaves), want 1",
			h, nx.PrimaryTree().Len(), nx.PrimaryTree().LeafPages())
	}
	for _, tr := range []interface{ Validate() error }{nx.PrimaryTree(), nx.AuxTree()} {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadRefusesNonEmptyNIX pins the bulk load's precondition: its
// write-back table reads a miss as an absent record, true only of an
// empty index.
func TestLoadRefusesNonEmptyNIX(t *testing.T) {
	g, err := gen.Generate(model.Figure7Stats(), 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	nx := bulkNIX(t, g.Store, g.Path)
	if err := index.Load(g.Store, g.Path, nx); err == nil {
		t.Fatal("second Load into a loaded NIX succeeded")
	}
}
