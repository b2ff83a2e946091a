package cost

import "fmt"

// Range-predicate support (Section 3: "The extension to range predicates
// is straightforward"). A range predicate A_n IN [lo, hi] matches a
// fraction sel of the ending attribute's distinct values; every quantity
// in the equality-predicate model scales through the noid chain, whose
// boundary becomes sel * D instead of 1.

// rangeKeys returns the number of distinct ending-attribute keys matched
// by a range predicate of the given selectivity (at least 1: a range that
// matches nothing costs as much as probing once to find out).
func (e *Evaluator) rangeKeys(sel float64) (float64, error) {
	if sel < 0 || sel > 1 {
		return 0, fmt.Errorf("cost: selectivity %g outside [0,1]", sel)
	}
	d := e.PS.Level(e.PS.Len()).DMax()
	keys := sel * d
	if keys < 1 {
		keys = 1
	}
	return keys, nil
}

// QueryRange is Query for a range predicate with the given selectivity
// over the ending attribute's distinct values. Equality is the sel→0
// limit (one key).
func (e *Evaluator) QueryRange(l int, class string, sel float64) (float64, error) {
	keys, err := e.rangeKeys(sel)
	if err != nil {
		return 0, err
	}
	x, err := e.classIdx(l, class)
	if err != nil {
		return 0, err
	}
	if l < e.A || l > e.B {
		return 0, fmt.Errorf("cost: level %d outside subpath [%d,%d]", l, e.A, e.B)
	}
	switch e.Org {
	case MX:
		s := CRT(e.mx[l-e.A].geom[x], keys*e.feed(l), 0)
		for i := l + 1; i <= e.B; i++ {
			for _, g := range e.mx[i-e.A].geom {
				s += CRT(g, keys*e.feed(i), 0)
			}
		}
		return s, nil
	case MIX:
		var s float64
		for i := l; i <= e.B; i++ {
			s += CRT(e.mix[i-e.A].geom, keys*e.feed(i), 0)
		}
		return s, nil
	case NIX:
		pr := e.nixPR(e.nixSection[l-e.A][x : x+1])
		return CRT(e.nixPrimary, keys*e.feed(e.B), pr), nil
	case PX, NX:
		return e.extQueryRange(l, keys)
	case NONE:
		// A scan evaluates any predicate in one pass.
		return e.scanCost(l), nil
	}
	return 0, fmt.Errorf("cost: unknown organization %v", e.Org)
}

// QueryRangeHierarchy is QueryHierarchy for a range predicate.
func (e *Evaluator) QueryRangeHierarchy(l int, sel float64) (float64, error) {
	keys, err := e.rangeKeys(sel)
	if err != nil {
		return 0, err
	}
	if l < e.A || l > e.B {
		return 0, fmt.Errorf("cost: level %d outside subpath [%d,%d]", l, e.A, e.B)
	}
	switch e.Org {
	case MX:
		var s float64
		for i := l; i <= e.B; i++ {
			for _, g := range e.mx[i-e.A].geom {
				s += CRT(g, keys*e.feed(i), 0)
			}
		}
		return s, nil
	case MIX:
		var s float64
		for i := l; i <= e.B; i++ {
			s += CRT(e.mix[i-e.A].geom, keys*e.feed(i), 0)
		}
		return s, nil
	case NIX:
		pr := e.nixPR(e.nixSection[l-e.A])
		return CRT(e.nixPrimary, keys*e.feed(e.B), pr), nil
	case PX, NX:
		return e.extQueryRange(l, keys)
	case NONE:
		return e.scanCost(l), nil
	}
	return 0, fmt.Errorf("cost: unknown organization %v", e.Org)
}

// extQueryRange prices a range query for the extension organizations.
func (e *Evaluator) extQueryRange(l int, keys float64) (float64, error) {
	g, err := e.extGeom()
	if err != nil {
		return 0, err
	}
	t := keys * e.feed(e.B)
	switch e.Org {
	case NX:
		if l == e.A {
			return CRT(g, t, 0), nil
		}
		return e.scanCost(l), nil
	case PX:
		return CRT(g, t, g.RecordPages()), nil
	}
	return 0, fmt.Errorf("cost: extQueryRange on %v", e.Org)
}
