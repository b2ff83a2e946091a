package cost

import "repro/internal/model"

// SubpathCost is the processing cost of subpath [A..B] under one
// organization: the workload-weighted sum of searching and maintenance
// costs (Sections 3.2 and 4), decomposed for reporting.
type SubpathCost struct {
	A, B  int
	Org   Organization
	Query float64 // searching cost, weighted by query frequencies
	Maint float64 // insertion + deletion maintenance, weighted
	CMD   float64 // Definition 4.2 boundary cost, weighted
}

// Total returns the full processing cost.
func (s SubpathCost) Total() float64 { return s.Query + s.Maint + s.CMD }

// ProcessingCost computes the processing cost of subpath [a..b] of ps under
// org. The workload model follows Section 3.2 exactly:
//
//   - Queries against the ending attribute with respect to each class in the
//     subpath's scope are charged at that class's Alpha frequency.
//   - If the subpath's starting class is not the path's starting class, the
//     query frequencies of every class preceding the subpath are added as
//     hierarchy-level queries against the subpath's starting class (those
//     queries must traverse this subpath too).
//   - Insertions and deletions on each class in the subpath's scope are
//     charged at Beta and Gamma.
//   - If the subpath does not end the path, deletions on the class hierarchy
//     that starts the following subpath charge the Definition 4.2 boundary
//     cost CMD to this subpath.
func ProcessingCost(e *Evaluator) (SubpathCost, error) {
	ps, a, b := e.PS, e.A, e.B
	out := SubpathCost{A: a, B: b, Org: e.Org}

	// Queries with respect to the classes of the subpath's own scope. With
	// a positive Selectivity the workload's queries are range predicates
	// (Section 3's extension); otherwise equality predicates. The Rho
	// component is always priced as a range predicate — at the declared
	// Selectivity, or the default when the path declares none — so an
	// observed mixed equality/range mix prices each part correctly.
	rsel := ps.Selectivity
	if rsel == 0 {
		rsel = model.DefaultRangeSelectivity
	}
	query := func(l int, class string) (float64, error) {
		if ps.Selectivity > 0 {
			return e.QueryRange(l, class, ps.Selectivity)
		}
		return e.Query(l, class)
	}
	queryHier := func(l int) (float64, error) {
		if ps.Selectivity > 0 {
			return e.QueryRangeHierarchy(l, ps.Selectivity)
		}
		return e.QueryHierarchy(l)
	}
	for l := a; l <= b; l++ {
		ls := ps.Level(l)
		for x, c := range ls.Classes {
			ld := ls.Loads[x]
			if ld.Alpha != 0 {
				q, err := query(l, c.Class)
				if err != nil {
					return out, err
				}
				out.Query += ld.Alpha * q
			}
			if ld.Rho != 0 {
				q, err := e.QueryRange(l, c.Class, rsel)
				if err != nil {
					return out, err
				}
				out.Query += ld.Rho * q
			}
		}
	}
	// Inherited query load from the classes preceding the subpath.
	if a > 1 {
		var extra, extraR float64
		for l := 1; l < a; l++ {
			tl := ps.Level(l).TotalLoad()
			extra += tl.Alpha
			extraR += tl.Rho
		}
		if extra > 0 {
			q, err := queryHier(a)
			if err != nil {
				return out, err
			}
			out.Query += extra * q
		}
		if extraR > 0 {
			q, err := e.QueryRangeHierarchy(a, rsel)
			if err != nil {
				return out, err
			}
			out.Query += extraR * q
		}
	}
	// Maintenance on the subpath's own scope.
	for l := a; l <= b; l++ {
		ls := ps.Level(l)
		for x, c := range ls.Classes {
			ld := ls.Loads[x]
			if ld.Beta > 0 {
				ci, err := e.Insert(l, c.Class)
				if err != nil {
					return out, err
				}
				out.Maint += ld.Beta * ci
			}
			if ld.Gamma > 0 {
				cd, err := e.Delete(l, c.Class)
				if err != nil {
					return out, err
				}
				out.Maint += ld.Gamma * cd
			}
		}
	}
	// Boundary deletions (Definition 4.2).
	if b < ps.Len() {
		gamma := ps.Level(b + 1).TotalLoad().Gamma
		if gamma > 0 {
			out.CMD = gamma * e.CMD()
		}
	}
	return out, nil
}

// SubpathProcessingCost is a convenience wrapper constructing the evaluator
// and computing the processing cost in one call.
func SubpathProcessingCost(ps *model.PathStats, a, b int, org Organization) (SubpathCost, error) {
	e, err := NewEvaluator(ps, a, b, org)
	if err != nil {
		return SubpathCost{}, err
	}
	return ProcessingCost(e)
}

// SubpathProcessingCostShared is SubpathProcessingCost reading the
// per-level tables of sh (see NewShared); results are bit-identical to the
// unshared path.
func SubpathProcessingCostShared(ps *model.PathStats, a, b int, org Organization, sh *Shared) (SubpathCost, error) {
	e, err := NewEvaluatorShared(ps, a, b, org, sh)
	if err != nil {
		return SubpathCost{}, err
	}
	return ProcessingCost(e)
}
