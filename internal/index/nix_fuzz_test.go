package index

import (
	"reflect"
	"testing"
)

// FuzzNIXDecode feeds arbitrary bytes to the NIX page decoders — primary
// records and 3-tuples, both read back from index pages. Neither may
// panic, and whatever one accepts must survive a re-encode unchanged:
// decode(encode(decode(b))) = decode(b).
func FuzzNIXDecode(f *testing.F) {
	fx := buildFixture(f, 3, 4, 12, 20)
	nx, err := NewNestedInheritedIndex(fx.path, 1, fx.path.Len(), 1024)
	if err != nil {
		f.Fatal(err)
	}
	if err := Load(fx.store, fx.path, nx); err != nil {
		f.Fatal(err)
	}
	for _, tr := range []interface {
		Ascend(func(k, v []byte) bool)
	}{nx.primary, nx.aux} {
		n := 0
		tr.Ascend(func(_, v []byte) bool {
			f.Add(append([]byte(nil), v...))
			n++
			return n < 4
		})
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if rec, err := nx.decodeRecord(b); err == nil {
			again, err := nx.decodeRecord(nx.encodeRecord(rec))
			if err != nil {
				t.Fatalf("re-encoded record rejected: %v", err)
			}
			if !reflect.DeepEqual(again, rec) {
				t.Fatalf("record changed across a re-encode: %+v -> %+v", rec, again)
			}
		}
		if tup, err := decodeAux(b); err == nil {
			again, err := decodeAux(encodeAux(tup))
			if err != nil {
				t.Fatalf("re-encoded 3-tuple rejected: %v", err)
			}
			if !reflect.DeepEqual(again, tup) {
				t.Fatalf("3-tuple changed across a re-encode: %+v -> %+v", tup, again)
			}
		}
	})
}
