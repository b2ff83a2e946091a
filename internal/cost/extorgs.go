package cost

import (
	"fmt"
	"math"
)

// Section 6 of the paper: "The incorporation of path and nested indices
// [6,2] can be done straightforward since we may verify easily that the
// maintenance and retrieval costs on a subpath indexed by these types can
// be estimated independently of other subpaths." This file implements that
// incorporation as two further organizations selectable in the matrix:
//
//   - NX, the nested index of Bertino & Kim [1]: one B+-tree mapping each
//     ending value to the OIDs of the subpath's *starting* class hierarchy
//     reaching it. Queries with respect to the starting class cost one
//     record retrieval; queries with respect to inner classes are not
//     supported by the structure and fall back to scanning; maintenance
//     for inner-level updates must locate starting-class ancestors without
//     an auxiliary structure, i.e. by scanning the preceding hierarchies.
//
//   - PX, the path index of [6]: one B+-tree mapping each ending value to
//     the set of full path instantiations (OID sequences) reaching it.
//     Queries with respect to any class project one component of the
//     instantiations, at the price of reading whole (large) records;
//     maintenance locates affected records by forward navigation from the
//     updated object (no scans, no auxiliary index), paying object reads.
//
// Both models are reconstructions in the spirit of the cited work (the
// originals model a single whole-path index); DESIGN.md records them as
// extensions.

const (
	// PX is the path index of [6] (extension organization).
	PX Organization = iota + 100
	// NX is the nested index of [1] (extension organization).
	NX
)

// OrganizationsExtended is the full column set: the paper's three plus the
// Section 6 incorporations and the no-index option.
var OrganizationsExtended = []Organization{MX, MIX, NIX, PX, NX, NONE}

// extGeom returns the geometry of the PX or NX structure for the
// evaluator's subpath, building it on first use and caching it: every
// priced operation needs it, and it depends only on the subpath bounds.
func (e *Evaluator) extGeom() (*Geom, error) {
	if e.extG != nil {
		return e.extG, nil
	}
	g, err := e.buildExtGeom()
	if err == nil {
		e.extG = g
	}
	return g, err
}

// buildExtGeom derives the PX/NX structure geometry.
func (e *Evaluator) buildExtGeom() (*Geom, error) {
	p := e.PS.Params
	page := float64(p.PageSize)
	entry := float64(p.KeyLen + p.PtrLen)
	nk := e.PS.Level(e.B).DMax()
	switch e.Org {
	case NX:
		// Entries: the starting-hierarchy OIDs per ending value.
		var entries float64
		for x := range e.PS.Level(e.A).Classes {
			entries += e.noidS[0][x]
		}
		ln := float64(p.RecHeader) + entries*float64(p.OidLen)
		return NewGeom(nk, ln, page, entry)
	case PX:
		// Entries: full instantiations. The number of instantiations from
		// one starting object is the product of the fan-outs along the
		// subpath; per key it is the total divided by the key count.
		paths := e.PS.Level(e.A).NTotal()
		for i := e.A; i <= e.B; i++ {
			paths *= e.PS.Level(i).NINAvg()
		}
		perKey := paths
		if nk > 0 {
			perKey = paths / nk
		}
		pathLen := float64(e.B-e.A+1) * float64(p.OidLen)
		ln := float64(p.RecHeader) + perKey*pathLen
		return NewGeom(nk, ln, page, entry)
	}
	return nil, fmt.Errorf("cost: extGeom on %v", e.Org)
}

// navDownPages estimates the object-page reads of navigating forward from
// one object at level l to the subpath's ending attribute: one page per
// visited object.
func (e *Evaluator) navDownPages(l int) float64 {
	var pages, width float64
	width = 1
	for i := l; i < e.B; i++ {
		width *= e.PS.Level(i).NINAvg()
		pages += width
	}
	return pages
}

// scanLevelsPages estimates the sequential scan of the hierarchies at
// levels [lo..hi] (the NX fallback for locating ancestors or answering
// inner-class queries).
func (e *Evaluator) scanLevelsPages(lo, hi int) float64 {
	p := e.PS.Params
	var pages float64
	for i := lo; i <= hi; i++ {
		for _, c := range e.PS.Level(i).Classes {
			objLen := float64(p.RecHeader) + c.NIN*float64(p.OidLen) + 4*float64(p.KeyLen)
			perPage := math.Max(1, math.Floor(float64(p.PageSize)/objLen))
			pages += math.Ceil(c.N / perPage)
		}
	}
	return pages
}

// extQuery prices a query for the extension organizations.
func (e *Evaluator) extQuery(l int, hierarchy bool) (float64, error) {
	g, err := e.extGeom()
	if err != nil {
		return 0, err
	}
	t := e.feed(e.B)
	switch e.Org {
	case NX:
		if l == e.A {
			return CRT(g, t, 0), nil
		}
		// The structure cannot answer inner-class queries: evaluate by
		// scanning from level l (the NONE behaviour for that slice).
		return e.scanCost(l), nil
	case PX:
		// Whole records must be read (no class directory).
		return CRT(g, t, g.RecordPages()), nil
	}
	return 0, fmt.Errorf("cost: extQuery on %v", e.Org)
}

// extMaintain prices insertion (del=false) or deletion (del=true) of an
// object of class x at level l for the extension organizations.
func (e *Evaluator) extMaintain(l int, nin float64, del bool) (float64, error) {
	g, err := e.extGeom()
	if err != nil {
		return 0, err
	}
	keys := e.ninBarS(l)
	switch e.Org {
	case NX:
		if l == e.A {
			// The object's own keys are found by forward navigation; the
			// records are then maintained directly.
			return e.navDownPages(l) + CMT(g, keys, 1), nil
		}
		// Inner-level update: the affected starting objects can only be
		// found by scanning the preceding hierarchies (no auxiliary
		// index), then re-evaluating their membership.
		return e.scanLevelsPages(e.A, l-1) + e.navDownPages(l) + CMT(g, keys, 1), nil
	case PX:
		// Forward navigation from the object yields the affected keys;
		// each record is rewritten (instantiations added/removed). Whole
		// records are touched: pm = record pages.
		pm := g.RecordPages()
		cost := e.navDownPages(l) + CMT(g, keys, pm)
		if del {
			// Deleting an inner object also invalidates the instantiations
			// of its ancestors through it; those live in the same records
			// (already fetched by CMT), so no extra structure accesses.
			cost += 0
		}
		_ = nin
		return cost, nil
	}
	return 0, fmt.Errorf("cost: extMaintain on %v", e.Org)
}

// extCMD prices the Definition 4.2 boundary deletion for the extensions:
// the record keyed by the deleted OID is dropped entirely.
func (e *Evaluator) extCMD() float64 {
	g, err := e.extGeom()
	if err != nil {
		return 0
	}
	return CML(g, g.RecordPages())
}
