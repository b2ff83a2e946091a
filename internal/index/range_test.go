package index

import (
	"reflect"
	"testing"

	"repro/internal/btree"
	"repro/internal/oodb"
	"repro/internal/schema"
)

// rangeNaive computes ground truth for a string range [lo, hi) on the
// fixture's path.
func (f *fixture) rangeNaive(t testing.TB, lo, hi, targetClass string, hierarchy bool) []oodb.OID {
	t.Helper()
	var out []oodb.OID
	for _, brand := range f.brands {
		if brand >= lo && brand < hi {
			out = append(out, f.naiveMatch(t, brand, targetClass, hierarchy)...)
		}
	}
	return oodb.SortUnique(out)
}

func TestLookupRangeMatchesNaive(t *testing.T) {
	f := buildFixture(t, 21, 8, 50, 80)
	ranges := [][2]string{
		{"brand-00", "brand-03"},
		{"brand-02", "brand-08"},
		{"brand-00", "brand-99"},
		{"brand-09", "brand-09"}, // empty
	}
	for _, org := range allOrgs {
		ix := f.buildIndex(t, org)
		for _, r := range ranges {
			for _, tc := range []struct {
				class string
				hier  bool
			}{{"Person", false}, {"Vehicle", true}, {"Bus", false}, {"Company", false}} {
				want := f.rangeNaive(t, r[0], r[1], tc.class, tc.hier)
				got, err := ix.LookupRange(oodb.StrV(r[0]), oodb.StrV(r[1]), tc.class, tc.hier)
				if err != nil {
					t.Fatalf("%s LookupRange(%v): %v", org, r, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s LookupRange(%v, %s, h=%v) = %v, want %v", org, r, tc.class, tc.hier, got, want)
				}
			}
		}
	}
}

func TestLookupRangeErrors(t *testing.T) {
	f := buildFixture(t, 22, 3, 10, 10)
	for _, org := range allOrgs {
		ix := f.buildIndex(t, org)
		if _, err := ix.LookupRange(oodb.StrV("a"), oodb.IntV(1), "Person", false); err == nil {
			t.Errorf("%s: mixed-kind range accepted", org)
		}
		if _, err := ix.LookupRange(oodb.StrV("a"), oodb.StrV("b"), "Division", false); err == nil {
			t.Errorf("%s: out-of-scope class accepted", org)
		}
	}
}

func TestIntKeyOrderPreserved(t *testing.T) {
	// The sign-flip encoding must order negative < zero < positive.
	vals := []int64{-5, -1, 0, 1, 5}
	for i := 1; i < len(vals); i++ {
		a := string(EncodeValue(oodb.IntV(vals[i-1])))
		b := string(EncodeValue(oodb.IntV(vals[i])))
		if a >= b {
			t.Errorf("encoding order broken: %d !< %d", vals[i-1], vals[i])
		}
	}
}

func TestLookupRangeOnIntegers(t *testing.T) {
	// An integer-valued ending attribute: index Vehicle.weight directly
	// through a single-level MX subpath of the paper schema.
	s := schema.PaperSchema()
	st, _ := oodb.NewStore(s, 1024)
	pathW := schema.MustNewPath(s, "Vehicle", "weight")
	mx, err := NewMultiIndex(pathW, 1, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var oids []oodb.OID
	for i := int64(-3); i <= 3; i++ {
		oid, err := st.Insert("Vehicle", map[string][]oodb.Value{"weight": {oodb.IntV(i * 10)}})
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := st.Peek(oid)
		if err := mx.OnInsert(obj); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	got, err := mx.LookupRange(oodb.IntV(-15), oodb.IntV(15), "Vehicle", false)
	if err != nil {
		t.Fatal(err)
	}
	// Weights in [-15, 15): -10, 0, 10 → the 3rd, 4th, 5th inserted.
	want := oodb.SortUnique([]oodb.OID{oids[2], oids[3], oids[4]})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("integer range = %v, want %v", got, want)
	}
}

// TestLookupRangeCorruptPostingList plants a truncated posting list inside
// the scanned range of every organization whose range scan decodes OID
// sets; the scan must fail rather than return the other lists' OIDs as a
// partial answer.
func TestLookupRangeCorruptPostingList(t *testing.T) {
	f := buildFixture(t, 23, 6, 30, 40)
	mx := f.buildIndex(t, "MX").(*MultiIndex)
	mix := f.buildIndex(t, "MIX").(*MultiInheritedIndex)
	nx := buildNX(t, f)
	end := mx.sp.B - mx.sp.A
	for _, tc := range []struct {
		name string
		tree *btree.Tree
		ix   PathIndex
	}{
		{"MX", mx.byLevel[end]["Company"].tree, mx},
		{"MIX", mix.byLevel[end].tree, mix},
		{"NX", nx.tree, nx},
	} {
		key := EncodeValue(oodb.StrV("brand-02"))
		if !tc.tree.Update(key, func(old []byte) []byte { return old[:len(old)-1] }) {
			t.Fatalf("%s: no posting list for brand-02", tc.name)
		}
		targets := []string{"Person", "Company"}
		if tc.name == "NX" {
			targets = targets[:1] // NX answers starting-class queries only
		}
		for _, class := range targets {
			got, err := tc.ix.LookupRange(oodb.StrV("brand-00"), oodb.StrV("brand-99"), class, false)
			if err == nil {
				t.Errorf("%s LookupRange(%s) over a truncated posting list = %v, nil error", tc.name, class, got)
			}
		}
	}
}
