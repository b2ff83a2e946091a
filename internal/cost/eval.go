package cost

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Organization enumerates the index organizations considered by the
// selection algorithm. SIX and IIX are the length-1 special cases of MX and
// MIX (Section 2.2) and are therefore not separate columns; NONE is the
// paper's "further research" extension of leaving a subpath unindexed.
type Organization int

const (
	// MX is the multi-index: one index per class in the scope of the subpath.
	MX Organization = iota
	// MIX is the multi-inherited index: one (hierarchy-wide) index per class
	// of class(P) along the subpath.
	MIX
	// NIX is the nested inherited index: one primary index on the subpath's
	// ending attribute plus an auxiliary parent index.
	NIX
	// NONE leaves the subpath unindexed; queries scan, maintenance is free.
	NONE
)

// Organizations are the three organizations of the paper's matrix.
var Organizations = []Organization{MX, MIX, NIX}

// OrganizationsWithNone adds the no-index extension column.
var OrganizationsWithNone = []Organization{MX, MIX, NIX, NONE}

// String returns the paper's abbreviation.
func (o Organization) String() string {
	switch o {
	case MX:
		return "MX"
	case MIX:
		return "MIX"
	case NIX:
		return "NIX"
	case NONE:
		return "NONE"
	case PX:
		return "PX"
	case NX:
		return "NX"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// ParseOrganization converts an abbreviation to an Organization.
func ParseOrganization(s string) (Organization, error) {
	switch s {
	case "MX", "mx":
		return MX, nil
	case "MIX", "mix":
		return MIX, nil
	case "NIX", "nix":
		return NIX, nil
	case "NONE", "none":
		return NONE, nil
	case "PX", "px":
		return PX, nil
	case "NX", "nx":
		return NX, nil
	}
	return 0, fmt.Errorf("cost: unknown index organization %q", s)
}

// Evaluator computes query and maintenance costs for one subpath [A..B] of
// a path under one index organization. All level arguments are global
// (1-based positions in the full path). The evaluator pre-computes the
// geometry of every index structure the organization would allocate.
type Evaluator struct {
	PS  *model.PathStats
	A   int // first level of the subpath
	B   int // last level of the subpath
	Org Organization

	// sh, when non-nil, supplies the per-level tables and noid chains
	// shared across the evaluators of one path.
	sh *Shared
	// extG caches the PX/NX structure geometry, which depends only on the
	// subpath bounds and is otherwise re-derived per priced operation.
	extG *Geom

	// MX: per-class geometry and level costs (indexed [level-A]).
	mx []mxLevel
	// MIX: hierarchy-wide geometry and level costs (indexed [level-A]).
	mix []mixLevel
	// NIX: primary and auxiliary geometry plus per-class record sections.
	nixPrimary *Geom
	nixAux     *Geom
	// nixSection[level-A][classIdx] = bytes of the class section in a
	// primary record.
	nixSection [][]float64
	// noidS[l-A][x] = within-subpath noid of class x at level l; used for
	// record sizing.
	noidS [][]float64
}

// NewEvaluator builds an evaluator for subpath [a..b] of ps under org.
func NewEvaluator(ps *model.PathStats, a, b int, org Organization) (*Evaluator, error) {
	return newEvaluator(ps, a, b, org, nil)
}

// NewEvaluatorShared is NewEvaluator drawing the per-level geometry, level
// costs and noid chains from sh instead of re-deriving them. sh must have
// been built from the same (validated) statistics; results are
// bit-identical to NewEvaluator's.
func NewEvaluatorShared(ps *model.PathStats, a, b int, org Organization, sh *Shared) (*Evaluator, error) {
	return newEvaluator(ps, a, b, org, sh)
}

func newEvaluator(ps *model.PathStats, a, b int, org Organization, sh *Shared) (*Evaluator, error) {
	if ps == nil {
		return nil, fmt.Errorf("cost: nil path stats")
	}
	n := ps.Len()
	if a < 1 || b > n || a > b {
		return nil, fmt.Errorf("cost: invalid subpath [%d,%d] for path of length %d", a, b, n)
	}
	e := &Evaluator{PS: ps, A: a, B: b, Org: org, sh: sh}
	p := ps.Params
	page := float64(p.PageSize)
	entry := float64(p.KeyLen + p.PtrLen)

	// Within-subpath noid chain: noidS*_{b+1} = 1. The shared chain for
	// ending level b holds the same rows for levels a..b.
	if sh != nil {
		e.noidS = sh.noid[b-1][a-1:]
	} else {
		e.noidS = noidChain(ps, a, b)
	}

	switch org {
	case MX:
		if sh != nil {
			e.mx = sh.mx[a-1 : b]
			break
		}
		e.mx = make([]mxLevel, b-a+1)
		for l := a; l <= b; l++ {
			e.mx[l-a] = mxLevelAt(ps, l, e.feed(l))
		}
	case MIX:
		if sh != nil {
			e.mix = sh.mix[a-1 : b]
			break
		}
		e.mix = make([]mixLevel, b-a+1)
		for l := a; l <= b; l++ {
			e.mix[l-a] = mixLevelAt(ps, l, e.feed(l))
		}
	case NIX:
		// Primary index: keyed by values of A_B across the ending hierarchy.
		nk := ps.Level(b).DMax()
		e.nixSection = make([][]float64, b-a+1)
		ln := float64(p.RecHeader)
		var scopeSize int
		for l := a; l <= b; l++ {
			scopeSize += ps.Level(l).NC()
		}
		ln += float64(scopeSize) * float64(p.OffsetLen)
		for l := a; l <= b; l++ {
			ls := ps.Level(l)
			entryLen := float64(p.OidLen)
			if ps.Path.MultiValuedAt(l) {
				entryLen += float64(p.CountLen)
			}
			secs := make([]float64, ls.NC())
			for x := range ls.Classes {
				secs[x] = e.noidS[l-a][x] * entryLen
				ln += secs[x]
			}
			e.nixSection[l-a] = secs
		}
		e.nixPrimary = mustGeom(nk, ln, page, entry)
		// Auxiliary index: one 3-tuple per object of levels a+1..b.
		var naux, auxBytes float64
		for l := a + 1; l <= b; l++ {
			ls := ps.Level(l)
			ninBar := e.ninBarS(l)
			par := ps.Level(l - 1).KStar()
			for _, c := range ls.Classes {
				naux += c.N
				auxBytes += c.N * (float64(p.OidLen) + ninBar*float64(p.PtrLen) + par*float64(p.OidLen))
			}
		}
		lnAux := 0.0
		if naux > 0 {
			lnAux = auxBytes / naux
		}
		e.nixAux = mustGeom(naux, lnAux, page, entry)
	case NONE:
		// No structures.
	case PX, NX:
		// Build (and cache) the structure geometry now so construction
		// fails fast on bad inputs.
		if _, err := e.extGeom(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cost: unknown organization %v", org)
	}
	return e, nil
}

// ninBarS is the within-subpath nin̄: average distinct A_B values reachable
// from a level-l object, capped by the key cardinality of the subpath's
// ending level.
func (e *Evaluator) ninBarS(l int) float64 {
	v := 1.0
	for i := l; i <= e.B; i++ {
		v *= e.PS.Level(i).NINAvg()
	}
	if cap := e.PS.Level(e.B).DMax(); cap > 0 && v > cap {
		v = cap
	}
	return v
}

// feed returns the number of key values probed at global level i's index:
// the global noid*_{i+1} chain (1 for the path's ending attribute).
func (e *Evaluator) feed(i int) float64 {
	if e.sh != nil {
		return e.sh.noidStar[i+1]
	}
	return e.PS.NoidStar(i + 1)
}

// classIdx resolves a class name within level l.
func (e *Evaluator) classIdx(l int, class string) (int, error) {
	for i, c := range e.PS.Level(l).Classes {
		if c.Class == class {
			return i, nil
		}
	}
	return 0, fmt.Errorf("cost: class %q not at level %d", class, l)
}

// Query returns the searching cost CR_X(C_{l,x}) of a query against the
// path's ending attribute with respect to the single class x at global
// level l, a <= l <= b (Section 3.1 retrieval formulas, generalized to a
// subpath fed with noid*_{B+1} keys at its ending attribute).
func (e *Evaluator) Query(l int, class string) (float64, error) {
	x, err := e.classIdx(l, class)
	if err != nil {
		return 0, err
	}
	if l < e.A || l > e.B {
		return 0, fmt.Errorf("cost: level %d outside subpath [%d,%d]", l, e.A, e.B)
	}
	switch e.Org {
	case MX:
		// Probe the class's own index at level l, then every class's index
		// at deeper levels l+1..B.
		s := e.mx[l-e.A].crt[x]
		for i := l + 1; i <= e.B; i++ {
			for _, c := range e.mx[i-e.A].crt {
				s += c
			}
		}
		return s, nil
	case MIX:
		var s float64
		for i := l; i <= e.B; i++ {
			s += e.mix[i-e.A].crt
		}
		return s, nil
	case NIX:
		pr := e.nixPR(e.nixSection[l-e.A][x : x+1])
		return CRT(e.nixPrimary, e.feed(e.B), pr), nil
	case PX, NX:
		return e.extQuery(l, false)
	case NONE:
		return e.scanCost(l), nil
	}
	return 0, fmt.Errorf("cost: unknown organization %v", e.Org)
}

// QueryHierarchy returns CR_X(C*_l): the searching cost with respect to the
// whole inheritance hierarchy at level l. This is the load shape induced on
// a subpath by queries targeting classes that precede it (Section 3.2).
func (e *Evaluator) QueryHierarchy(l int) (float64, error) {
	if l < e.A || l > e.B {
		return 0, fmt.Errorf("cost: level %d outside subpath [%d,%d]", l, e.A, e.B)
	}
	switch e.Org {
	case MX:
		var s float64
		for i := l; i <= e.B; i++ {
			for _, c := range e.mx[i-e.A].crt {
				s += c
			}
		}
		return s, nil
	case MIX:
		// The hierarchy-wide index returns all classes' OIDs in one lookup.
		var s float64
		for i := l; i <= e.B; i++ {
			s += e.mix[i-e.A].crt
		}
		return s, nil
	case NIX:
		pr := e.nixPR(e.nixSection[l-e.A])
		return CRT(e.nixPrimary, e.feed(e.B), pr), nil
	case PX, NX:
		return e.extQuery(l, true)
	case NONE:
		return e.scanCost(l), nil
	}
	return 0, fmt.Errorf("cost: unknown organization %v", e.Org)
}

// nixPR estimates the pages of one primary record that must be retrieved to
// read the given class sections (byte sizes, a run of one level's
// nixSection row): 1 when the record fits a page, otherwise the pages
// covering the sections (the class directory makes partial retrieval
// possible, Figure 3).
func (e *Evaluator) nixPR(sections []float64) float64 {
	if !e.nixPrimary.MultiPage() {
		return 1
	}
	var bytes float64
	for _, b := range sections {
		bytes += b
	}
	pr := ceilDiv(bytes, e.nixPrimary.PageSize)
	if pr < 1 {
		pr = 1
	}
	if rp := e.nixPrimary.RecordPages(); pr > rp {
		pr = rp
	}
	return pr
}

// scanCost is the NONE-organization query cost: sequentially scan the
// objects of every hierarchy from level l to the end of the subpath,
// navigating forward references (the naive evaluation of the introduction).
func (e *Evaluator) scanCost(l int) float64 {
	p := e.PS.Params
	// Model objects as RecHeader + one OidLen per attribute value held.
	var pages float64
	for i := l; i <= e.B; i++ {
		for _, c := range e.PS.Level(i).Classes {
			objLen := float64(p.RecHeader) + c.NIN*float64(p.OidLen) + 4*float64(p.KeyLen)
			perPage := math.Max(1, math.Floor(float64(p.PageSize)/objLen))
			pages += math.Ceil(c.N / perPage)
		}
	}
	return pages
}

// Insert returns the maintenance cost charged to this subpath's index when
// an object is inserted into class x at global level l (flag = 0 in the
// paper's CM formulas).
func (e *Evaluator) Insert(l int, class string) (float64, error) {
	return e.maintain(l, class, false)
}

// Delete returns the maintenance cost charged to this subpath's index when
// an object is deleted from class x at global level l (flag = 1),
// excluding the boundary cost CMD, which Definition 4.2 charges to the
// preceding subpath.
func (e *Evaluator) Delete(l int, class string) (float64, error) {
	return e.maintain(l, class, true)
}

func (e *Evaluator) maintain(l int, class string, del bool) (float64, error) {
	x, err := e.classIdx(l, class)
	if err != nil {
		return 0, err
	}
	if l < e.A || l > e.B {
		return 0, fmt.Errorf("cost: level %d outside subpath [%d,%d]", l, e.A, e.B)
	}
	cs := e.PS.Level(l).Classes[x]
	switch e.Org {
	case MX:
		s := e.mx[l-e.A].cmt[x]
		if del && l > e.A {
			// Deletion also removes the object's OID as a key of the
			// indexes on the previous level (within the subpath).
			for _, g := range e.mx[l-1-e.A].geom {
				s += CML(g, 0)
			}
		}
		return s, nil
	case MIX:
		s := e.mix[l-e.A].cmt[x]
		if del && l > e.A {
			s += CML(e.mix[l-1-e.A].geom, 0)
		}
		return s, nil
	case NIX:
		if del {
			return e.nixDelete(l, x, cs), nil
		}
		return e.nixInsert(l, x, cs), nil
	case PX, NX:
		return e.extMaintain(l, cs.NIN, del)
	case NONE:
		return 0, nil
	}
	return 0, fmt.Errorf("cost: unknown organization %v", e.Org)
}

// nixInsert implements the NIX insertion cost CSI24 + CSI3 (Section 3.1).
func (e *Evaluator) nixInsert(l, x int, cs model.ClassStats) float64 {
	ownAux := 0.0
	if l > e.A {
		ownAux = 1 // the new object's own 3-tuple
	}
	childNar := 0.0
	childAccess := 0.0
	if l < e.B {
		childNar = e.PS.Nar(l+1, cs.NIN)
		childAccess = cs.NIN
	}
	csi24 := 0.0
	if t := childAccess; t > 0 {
		csi24 += CRT(e.nixAux, t, 1)
	}
	csi24 += CRR(childNar+ownAux, e.nixAux)
	// CSI3: modify the primary records reachable from the new object.
	csi3 := CMT(e.nixPrimary, e.ninBarS(l), e.nixPMI(l, x))
	return csi24 + csi3
}

// nixDelete implements the NIX deletion cost CSD2 + CSD3 (Section 3.1).
func (e *Evaluator) nixDelete(l, x int, cs model.ClassStats) float64 {
	ownAux := 0.0
	if l > e.A {
		ownAux = 1
	}
	childNar := 0.0
	childAccess := 0.0
	if l < e.B {
		childNar = e.PS.Nar(l+1, cs.NIN)
		childAccess = cs.NIN
	}
	// Step 2: access the children's 3-tuples and the object's own, rewrite.
	csd2 := 0.0
	if t := childAccess + ownAux; t > 0 {
		csd2 += CRT(e.nixAux, t, 1)
	}
	csd2 += CRR(childNar+ownAux, e.nixAux)

	// Step 3a: modify the primary records containing the object.
	cs3a := CMT(e.nixPrimary, e.ninBarS(l), e.nixPMD(l, x))

	// Steps 3b/3c: propagate through ancestor 3-tuples at levels A+1..l-1.
	var cu3bc, parSum, narpSum float64
	par := 1.0
	for i := l - 1; i >= e.A+1; i-- {
		ls := e.PS.Level(i)
		par *= ls.KStar()
		narp := ls.ExpectedNonEmpty(par)
		cu3bc += CRR(narp, e.nixAux)
		parSum += par
		narpSum += narp
	}
	var saCost float64
	if parSum > 0 {
		sa1 := Yao(parSum, e.nixAux.NK, e.nixAux.LeafPages)
		var sa2 float64
		if !e.nixAux.MultiPage() {
			sa2 = Yao(narpSum, e.nixAux.NK, e.nixAux.LeafPages)
		} else {
			sa2 = narpSum * e.nixAux.RecordPages()
		}
		saCost = math.Min(sa1, sa2)
	}
	return csd2 + cs3a + cu3bc + saCost
}

// nixPMD is the per-record page maintenance factor for a deletion: the
// pages covering the sections of the deleted object's class and of every
// ancestor level (those sections are modified in step 3a), when the record
// spans multiple pages.
func (e *Evaluator) nixPMD(l, x int) float64 {
	if !e.nixPrimary.MultiPage() {
		return 1
	}
	var bytes float64
	for i := e.A; i <= l; i++ {
		for j := range e.PS.Level(i).Classes {
			if i == l && j != x {
				continue
			}
			bytes += e.nixSection[i-e.A][j]
		}
	}
	pm := ceilDiv(bytes, e.nixPrimary.PageSize)
	if pm < 1 {
		pm = 1
	}
	if rp := e.nixPrimary.RecordPages(); pm > rp {
		pm = rp
	}
	return pm
}

// nixPMI is the per-record page maintenance factor for an insertion: the
// new entries land in the pages holding the object's class section.
func (e *Evaluator) nixPMI(l, x int) float64 {
	if !e.nixPrimary.MultiPage() {
		return 1
	}
	pm := ceilDiv(e.nixSection[l-e.A][x], e.nixPrimary.PageSize)
	if pm < 1 {
		pm = 1
	}
	return pm
}

// CMD returns the boundary maintenance cost of Definition 4.2: the cost, on
// this subpath's index, of deleting one key of its ending attribute A_B.
// This is charged per deletion of an object of the class hierarchy at
// level B+1 (the starting class of the following subpath). Zero when the
// subpath ends the path or under NONE.
func (e *Evaluator) CMD() float64 {
	if e.B >= e.PS.Len() {
		return 0
	}
	switch e.Org {
	case MX:
		var s float64
		for _, g := range e.mx[e.B-e.A].geom {
			s += CML(g, g.RecordPages())
		}
		return s
	case MIX:
		g := e.mix[e.B-e.A].geom
		return CML(g, g.RecordPages())
	case NIX:
		s := CML(e.nixPrimary, e.nixPrimary.RecordPages())
		// delpoint: the 3-tuples of every aux-bearing object listed in the
		// removed primary record lose a pointer.
		var tt float64
		for l := e.A + 1; l <= e.B; l++ {
			for x := range e.PS.Level(l).Classes {
				tt += e.noidS[l-e.A][x]
			}
		}
		if tt > 0 {
			if !e.nixAux.MultiPage() {
				s += Yao(tt, e.nixAux.NK, e.nixAux.LeafPages)
			} else {
				s += tt * e.nixAux.RecordPages()
			}
		}
		return s
	case PX, NX:
		return e.extCMD()
	case NONE:
		return 0
	}
	return 0
}
