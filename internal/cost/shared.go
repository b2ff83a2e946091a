package cost

import "repro/internal/model"

// Shared holds the per-level quantities that every subpath evaluator of
// one path re-derives: the MX and MIX index geometries and the costs that
// depend only on the level (the equality probe of a level's index at
// noid*_{l+1} keys, and the maintenance of an object's nin keys), the
// within-subpath noid chains (which depend only on the subpath's ending
// level), and the global noid* feed values. Building the cost matrix of a
// path of length n constructs n(n+1)/2 evaluators per organization; with a
// Shared attached, this work is done once per level instead of once per
// subpath.
//
// The tables are produced by exactly the same computations the unshared
// evaluator performs, and the evaluator sums them in the same order, so
// shared and unshared evaluations are bit-identical (the equivalence tests
// in internal/core rely on this). A Shared is immutable after NewShared
// and may be used by any number of goroutines.
type Shared struct {
	mx       []mxLevel     // [l-1]
	mix      []mixLevel    // [l-1]
	noid     [][][]float64 // [b-1][l-1][classIdx]: noidS chain computed from ending level b
	noidStar []float64     // [l]: noid*_l for l in 1..n+1
}

// mxLevel is the MX organization at one level: one index per class of
// the hierarchy, keyed by the class's own values.
type mxLevel struct {
	geom []*Geom   // [classIdx]
	crt  []float64 // [classIdx]: CRT at the level's feed noid*_{l+1}
	cmt  []float64 // [classIdx]: CMT of the class's nin keys
}

// mixLevel is the MIX organization at one level: one hierarchy-wide index.
type mixLevel struct {
	geom *Geom
	crt  float64   // CRT at the level's feed noid*_{l+1}
	cmt  []float64 // [classIdx]: CMT of the class's nin keys
}

// mxLevelAt builds the MX tables of level l probed with feed keys. Single
// source for the shared table and the per-evaluator construction.
func mxLevelAt(ps *model.PathStats, l int, feed float64) mxLevel {
	p := ps.Params
	page := float64(p.PageSize)
	entry := float64(p.KeyLen + p.PtrLen)
	ls := ps.Level(l)
	nc := ls.NC()
	lv := mxLevel{geom: make([]*Geom, nc), crt: make([]float64, nc), cmt: make([]float64, nc)}
	for x, c := range ls.Classes {
		ln := float64(p.RecHeader) + c.K()*float64(p.OidLen)
		g := mustGeom(c.D, ln, page, entry)
		lv.geom[x] = g
		lv.crt[x] = CRT(g, feed, 0)
		lv.cmt[x] = CMT(g, c.NIN, 0)
	}
	return lv
}

// mixLevelAt builds the MIX tables of level l probed with feed keys.
func mixLevelAt(ps *model.PathStats, l int, feed float64) mixLevel {
	p := ps.Params
	ls := ps.Level(l)
	nk := ls.DMax()
	var entries float64
	for _, c := range ls.Classes {
		entries += c.N * c.NIN
	}
	ln := float64(p.RecHeader)
	if nk > 0 {
		ln += entries / nk * float64(p.OidLen)
	}
	g := mustGeom(nk, ln, float64(p.PageSize), float64(p.KeyLen+p.PtrLen))
	lv := mixLevel{geom: g, crt: CRT(g, feed, 0), cmt: make([]float64, ls.NC())}
	for x, c := range ls.Classes {
		lv.cmt[x] = CMT(g, c.NIN, 0)
	}
	return lv
}

// noidChain builds the within-subpath noid rows for levels lo..b of the
// chain ending at level b (noidS*_{b+1} = 1), indexed [l-lo][classIdx].
// The multiplication runs from b downward, so for a fixed b any lo yields
// a suffix of the same (bit-identical) values.
func noidChain(ps *model.PathStats, lo, b int) [][]float64 {
	rows := make([][]float64, b-lo+1)
	star := 1.0
	for l := b; l >= lo; l-- {
		ls := ps.Level(l)
		row := make([]float64, ls.NC())
		for x, c := range ls.Classes {
			row[x] = c.K() * star
		}
		rows[l-lo] = row
		star *= ls.KStar()
	}
	return rows
}

// NewShared precomputes the shared tables for ps. The statistics must have
// been validated (geometry construction panics on invalid inputs, exactly
// like the per-evaluator construction it replaces).
func NewShared(ps *model.PathStats) *Shared {
	n := ps.Len()
	sh := &Shared{
		mx:   make([]mxLevel, n),
		mix:  make([]mixLevel, n),
		noid: make([][][]float64, n),
	}
	// Global noid* chain, multiplied from level n downward like
	// model.PathStats.NoidStar.
	sh.noidStar = make([]float64, n+2)
	sh.noidStar[n+1] = 1
	v := 1.0
	for l := n; l >= 1; l-- {
		v *= ps.Level(l).KStar()
		sh.noidStar[l] = v
	}
	for l := 1; l <= n; l++ {
		sh.mx[l-1] = mxLevelAt(ps, l, sh.noidStar[l+1])
		sh.mix[l-1] = mixLevelAt(ps, l, sh.noidStar[l+1])
	}
	// Within-subpath noid chains: the chain for ending level b covers
	// levels 1..b; a subpath [a,b] uses its suffix starting at level a.
	for b := 1; b <= n; b++ {
		sh.noid[b-1] = noidChain(ps, 1, b)
	}
	return sh
}
