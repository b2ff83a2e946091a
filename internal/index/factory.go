package index

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/oodb"
	"repro/internal/schema"
)

// Supported reports whether the organization has a working structure New
// can build. NX and NONE have analytic cost models only: NX answers
// starting-class queries alone and NONE is the absence of a structure, so
// neither can serve as a maintained subpath index.
func Supported(org cost.Organization) bool {
	switch org {
	case cost.MX, cost.MIX, cost.NIX, cost.PX:
		return true
	default:
		return false
	}
}

// New builds the working structure of one organization over the subpath
// [a..b] of p, with index pages of pageSize bytes. The store is needed
// only by PX, which reads objects back through the store to materialize
// its path instantiations.
func New(st *oodb.Store, p *schema.Path, a, b int, org cost.Organization, pageSize int) (PathIndex, error) {
	switch org {
	case cost.MX:
		return NewMultiIndex(p, a, b, pageSize)
	case cost.MIX:
		return NewMultiInheritedIndex(p, a, b, pageSize)
	case cost.NIX:
		return NewNestedInheritedIndex(p, a, b, pageSize)
	case cost.PX:
		return NewPathIndexPX(st, p, a, b, pageSize)
	default:
		return nil, fmt.Errorf("index: organization %v has no working implementation", org)
	}
}

// Load bulk-loads an index New just built with the store's objects in its
// subpath's scope: deepest level first, each class in ascending OID
// order. Under the forward-reference model every object's references
// then point at objects already indexed, which is the order the NIX
// insertion algorithm relies on, and a given store always loads the same
// way. A NIX runs that algorithm against a write-back table and writes
// each record once at the end (bulkLoad); the other organizations insert
// through. On error the index is partially loaded and must be discarded.
func Load(st *oodb.Store, p *schema.Path, ix PathIndex) error {
	a, b := ix.Bounds()
	insertAll := func() error {
		for l := b; l >= a; l-- {
			for _, cn := range p.HierarchyAt(l) {
				for _, oid := range st.OIDsOfClass(cn) {
					obj, ok := st.Peek(oid)
					if !ok {
						return fmt.Errorf("index: loading %s: object %d left the store during the load", cn, oid)
					}
					if err := ix.OnInsert(obj); err != nil {
						return fmt.Errorf("index: loading %s object %d: %w", cn, oid, err)
					}
				}
			}
		}
		return nil
	}
	if nx, ok := ix.(*NestedInheritedIndex); ok {
		return nx.bulkLoad(insertAll)
	}
	return insertAll()
}
