package index

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"repro/internal/btree"
	"repro/internal/cost"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/storage"
)

// NestedInheritedIndex is the NIX organization (Section 3.1, Figures 3–5):
//
//   - a primary index mapping each value of the subpath's ending attribute
//     to, for every class in the subpath's scope, the (OID, numchild) pairs
//     of objects reaching that value through the path, laid out with a
//     class directory so a single class's section can be read without
//     fetching the whole (possibly multi-page) record;
//   - an auxiliary index mapping each object of levels A+1..B to its
//     3-tuple: aggregation parents and pointers to the primary records
//     containing it, used to maintain the primary index without navigating
//     the database.
//
// numchild of an entry (O, c) in the record of value v counts how many of
// O's children in the record also reach v; an entry is dropped when its
// count reaches zero, cascading to its own parents (the deletion algorithm
// of Section 3.1).
type NestedInheritedIndex struct {
	sp       *Subpath
	pager    *storage.Pager
	primary  *btree.Tree
	aux      *btree.Tree
	classPos map[string]int // class -> section position
	classes  []string       // section order: levels A..B, hierarchy order
	// ownerClass records the class of every indexed object so the update
	// cascade can place re-keyed ancestor entries in their class sections
	// without navigating the database (the 3-tuples identify parents by
	// OID only). As in MIX, a real system would read the class off the
	// OID's page; the registry avoids charging object-store accesses to
	// the index pager.
	ownerClass map[oodb.OID]string
	// table, non-nil only while Load fills the empty index, is the
	// write-back table the record and 3-tuple accessors go to instead of
	// the trees.
	table *loadTable
}

// loadTable holds the decoded primary records (by encoded key) and
// 3-tuples (by OID) of a NIX being bulk-loaded. The insertion algorithm
// mutates them in place; bulkLoad writes each to its tree once. A miss
// reads as an absent record or tuple, which is only true of an empty
// index.
type loadTable struct {
	records map[string]*nixRecord
	aux     map[oodb.OID]*auxTuple
}

// bulkLoad runs insert — the insertion algorithm over every object in
// scope — against a write-back table, then writes each non-empty primary
// record and every 3-tuple to its B+-tree exactly once, in ascending key
// order. A record rewritten as the load grows it would reallocate its
// overflow pages on every object and split leaves it would not need; in
// key order each leaf fills once. On error nothing is written.
func (nx *NestedInheritedIndex) bulkLoad(insert func() error) error {
	if nx.primary.Len() > 0 || nx.aux.Len() > 0 {
		return fmt.Errorf("index: NIX bulk load into a non-empty index")
	}
	nx.table = &loadTable{records: make(map[string]*nixRecord), aux: make(map[oodb.OID]*auxTuple)}
	defer func() { nx.table = nil }()
	if err := insert(); err != nil {
		return err
	}
	for _, k := range slices.Sorted(maps.Keys(nx.table.records)) {
		if rec := nx.table.records[k]; !rec.empty() {
			nx.primary.Insert([]byte(k), nx.encodeRecord(rec))
		}
	}
	for _, oid := range slices.Sorted(maps.Keys(nx.table.aux)) {
		nx.aux.Insert(EncodeOID(oid), encodeAux(nx.table.aux[oid]))
	}
	return nil
}

// NewNestedInheritedIndex allocates the NIX for subpath [a..b].
func NewNestedInheritedIndex(p *schema.Path, a, b, pageSize int) (*NestedInheritedIndex, error) {
	sp, err := NewSubpath(p, a, b)
	if err != nil {
		return nil, err
	}
	pager, err := storage.NewPager(pageSize, 0)
	if err != nil {
		return nil, err
	}
	nx := &NestedInheritedIndex{
		sp:         sp,
		pager:      pager,
		primary:    btree.New(pager, "nix/primary"),
		aux:        btree.New(pager, "nix/aux"),
		classPos:   make(map[string]int),
		ownerClass: make(map[oodb.OID]string),
	}
	for l := a; l <= b; l++ {
		for _, cn := range sp.classesAt(l) {
			nx.classPos[cn] = len(nx.classes)
			nx.classes = append(nx.classes, cn)
		}
	}
	return nx, nil
}

// Org returns cost.NIX.
func (nx *NestedInheritedIndex) Org() cost.Organization { return cost.NIX }

// Bounds returns the covered levels.
func (nx *NestedInheritedIndex) Bounds() (int, int) { return nx.sp.A, nx.sp.B }

// Stats returns the pager counters.
func (nx *NestedInheritedIndex) Stats() storage.Stats { return nx.pager.Stats() }

// ResetStats zeroes the pager counters.
func (nx *NestedInheritedIndex) ResetStats() { nx.pager.ResetStats() }

// PrimaryTree and AuxTree expose the trees for geometry assertions.
func (nx *NestedInheritedIndex) PrimaryTree() *btree.Tree { return nx.primary }

// AuxTree exposes the auxiliary tree.
func (nx *NestedInheritedIndex) AuxTree() *btree.Tree { return nx.aux }

// ---- primary record serialization -------------------------------------

// nixEntry is one (OID, numchild) pair of a class section.
type nixEntry struct {
	oid   oodb.OID
	count uint32
}

// nixRecord is a decoded primary record: one entry list per class, ordered
// like nx.classes.
type nixRecord struct {
	sections [][]nixEntry
}

func (nx *NestedInheritedIndex) newRecord() *nixRecord {
	return &nixRecord{sections: make([][]nixEntry, len(nx.classes))}
}

func (r *nixRecord) empty() bool {
	for _, s := range r.sections {
		if len(s) > 0 {
			return false
		}
	}
	return true
}

func (r *nixRecord) find(pos int, oid oodb.OID) int {
	for i, e := range r.sections[pos] {
		if e.oid == oid {
			return i
		}
	}
	return -1
}

// headerLen is the byte length of the class directory: a count plus
// (offset, count) per class.
func (nx *NestedInheritedIndex) headerLen() int { return 4 + 8*len(nx.classes) }

const nixEntryLen = 12 // oid (8) + numchild (4)

func (nx *NestedInheritedIndex) encodeRecord(r *nixRecord) []byte {
	h := nx.headerLen()
	total := h
	for _, s := range r.sections {
		total += len(s) * nixEntryLen
	}
	out := make([]byte, total)
	binary.BigEndian.PutUint32(out, uint32(len(nx.classes)))
	off := h
	for i, s := range r.sections {
		binary.BigEndian.PutUint32(out[4+8*i:], uint32(off))
		binary.BigEndian.PutUint32(out[4+8*i+4:], uint32(len(s)))
		for _, e := range s {
			binary.BigEndian.PutUint64(out[off:], uint64(e.oid))
			binary.BigEndian.PutUint32(out[off+8:], e.count)
			off += nixEntryLen
		}
	}
	return out
}

func (nx *NestedInheritedIndex) decodeRecord(b []byte) (*nixRecord, error) {
	if len(b) < nx.headerLen() {
		return nil, fmt.Errorf("index: truncated NIX record (%d bytes)", len(b))
	}
	nc := int(binary.BigEndian.Uint32(b))
	if nc != len(nx.classes) {
		return nil, fmt.Errorf("index: NIX record with %d classes, want %d", nc, len(nx.classes))
	}
	r := nx.newRecord()
	for i := 0; i < nc; i++ {
		off := int(binary.BigEndian.Uint32(b[4+8*i:]))
		cnt := int(binary.BigEndian.Uint32(b[4+8*i+4:]))
		if off+cnt*nixEntryLen > len(b) {
			return nil, fmt.Errorf("index: NIX section %d out of bounds", i)
		}
		for j := 0; j < cnt; j++ {
			p := off + j*nixEntryLen
			r.sections[i] = append(r.sections[i], nixEntry{
				oid:   oodb.OID(binary.BigEndian.Uint64(b[p:])),
				count: binary.BigEndian.Uint32(b[p+8:]),
			})
		}
	}
	return r, nil
}

// ---- auxiliary 3-tuple serialization -----------------------------------

// auxTuple is a decoded 3-tuple (Figure 4): the object's aggregation
// parents and the primary keys whose records contain the object.
type auxTuple struct {
	parents  []oodb.OID
	pointers [][]byte // encoded primary keys
}

func encodeAux(t *auxTuple) []byte {
	size := 4 + 8*len(t.parents) + 4
	for _, p := range t.pointers {
		size += 2 + len(p)
	}
	out := make([]byte, size)
	binary.BigEndian.PutUint32(out, uint32(len(t.parents)))
	off := 4
	for _, p := range t.parents {
		binary.BigEndian.PutUint64(out[off:], uint64(p))
		off += 8
	}
	binary.BigEndian.PutUint32(out[off:], uint32(len(t.pointers)))
	off += 4
	for _, p := range t.pointers {
		binary.BigEndian.PutUint16(out[off:], uint16(len(p)))
		off += 2
		copy(out[off:], p)
		off += len(p)
	}
	return out
}

func decodeAux(b []byte) (*auxTuple, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("index: truncated aux tuple")
	}
	t := &auxTuple{}
	np := int(binary.BigEndian.Uint32(b))
	off := 4
	if len(b) < off+8*np+4 {
		return nil, fmt.Errorf("index: aux tuple parents out of bounds")
	}
	for i := 0; i < np; i++ {
		t.parents = append(t.parents, oodb.OID(binary.BigEndian.Uint64(b[off:])))
		off += 8
	}
	// The parent list is kept ascending in memory (addParent inserts by
	// binary search). Tuples written here already are; sorting makes it
	// hold for any bytes read back.
	slices.Sort(t.parents)
	nq := int(binary.BigEndian.Uint32(b[off:]))
	off += 4
	for i := 0; i < nq; i++ {
		if len(b) < off+2 {
			return nil, fmt.Errorf("index: aux tuple pointer header out of bounds")
		}
		l := int(binary.BigEndian.Uint16(b[off:]))
		off += 2
		if len(b) < off+l {
			return nil, fmt.Errorf("index: aux tuple pointer out of bounds")
		}
		t.pointers = append(t.pointers, append([]byte(nil), b[off:off+l]...))
		off += l
	}
	return t, nil
}

// addParent inserts p into the ascending, duplicate-free parent list.
func (t *auxTuple) addParent(p oodb.OID) {
	if i, found := slices.BinarySearch(t.parents, p); !found {
		t.parents = slices.Insert(t.parents, i, p)
	}
}

func (t *auxTuple) removeParent(p oodb.OID) {
	out := t.parents[:0]
	for _, x := range t.parents {
		if x != p {
			out = append(out, x)
		}
	}
	t.parents = out
}

func (t *auxTuple) addPointer(key []byte) {
	for _, p := range t.pointers {
		if keysEqual(p, key) {
			return
		}
	}
	t.pointers = append(t.pointers, append([]byte(nil), key...))
}

func (t *auxTuple) removePointer(key []byte) {
	out := t.pointers[:0]
	for _, p := range t.pointers {
		if !keysEqual(p, key) {
			out = append(out, p)
		}
	}
	t.pointers = out
}

func (nx *NestedInheritedIndex) getAux(oid oodb.OID) (*auxTuple, bool, error) {
	if nx.table != nil {
		t, ok := nx.table.aux[oid]
		return t, ok, nil
	}
	raw, ok := nx.aux.Get(EncodeOID(oid))
	if !ok {
		return nil, false, nil
	}
	t, err := decodeAux(raw)
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}

func (nx *NestedInheritedIndex) putAux(oid oodb.OID, t *auxTuple) {
	if nx.table != nil {
		nx.table.aux[oid] = t
		return
	}
	nx.aux.Insert(EncodeOID(oid), encodeAux(t))
}

// ---- lookup -------------------------------------------------------------

// Lookup reads the target class's section(s) of the primary record through
// the class directory, touching only the covering pages of a multi-page
// record.
func (nx *NestedInheritedIndex) Lookup(key oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	out, err := nx.LookupInto(key, targetClass, hierarchy, nil, NewScratch())
	if err != nil {
		return nil, err
	}
	return oodb.SortUnique(out), nil
}

// LookupInto is the allocation-free Lookup kernel: the class-directory
// header and the target sections are read into sc's buffers, and the
// section OIDs are appended to dst. The hierarchy closure comes from the
// subpath's pre-resolved table.
func (nx *NestedInheritedIndex) LookupInto(key oodb.Value, targetClass string, hierarchy bool, dst []oodb.OID, sc *Scratch) ([]oodb.OID, error) {
	if _, ok := nx.sp.LevelOf(targetClass); !ok {
		return dst, fmt.Errorf("index: class %s not in subpath scope", targetClass)
	}
	sc.key = AppendValue(sc.key[:0], key)
	head, ok := nx.primary.GetSectionInto(sc.key, 0, nx.headerLen(), sc.head[:0])
	sc.head = head
	if !ok {
		return dst, nil
	}
	if len(head) < nx.headerLen() {
		return dst, fmt.Errorf("index: short NIX header")
	}
	classes := nx.sp.HierarchyOf(targetClass)
	if !hierarchy {
		classes = classes[:1] // the pre-resolved hierarchy lists the class itself first
	}
	for _, cn := range classes {
		pos, ok := nx.classPos[cn]
		if !ok {
			continue
		}
		off := int(binary.BigEndian.Uint32(head[4+8*pos:]))
		cnt := int(binary.BigEndian.Uint32(head[4+8*pos+4:]))
		if cnt == 0 {
			continue
		}
		sec, ok := nx.primary.GetSectionInto(sc.key, off, cnt*nixEntryLen, sc.val[:0])
		sc.val = sec
		if !ok || len(sec) < cnt*nixEntryLen {
			return dst, fmt.Errorf("index: NIX section read failed for %s", cn)
		}
		for j := 0; j < cnt; j++ {
			dst = append(dst, oodb.OID(binary.BigEndian.Uint64(sec[j*nixEntryLen:])))
		}
	}
	return dst, nil
}

// ---- maintenance ---------------------------------------------------------

// keyCounts maps encoded primary keys (as strings) to a child multiplicity.
type keyCounts map[string]int

// collectChildPointers reads the aux tuples of the object's children and
// returns, per primary key, how many children carry it. Children at level
// B of a path-ending subpath have no tuples; their keys are the values
// themselves — that case is handled by the caller.
func (nx *NestedInheritedIndex) collectChildPointers(children []oodb.OID) (keyCounts, error) {
	kc := make(keyCounts)
	for _, c := range children {
		t, ok, err := nx.getAux(c)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // child at level A+... of another structure; tolerated
		}
		for _, p := range t.pointers {
			kc[string(p)]++
		}
	}
	return kc, nil
}

// childKeys derives the primary keys reached by the object, with child
// multiplicities (the numchild seed of its entries).
func (nx *NestedInheritedIndex) childKeys(obj *oodb.Object, l int) (keyCounts, error) {
	vals := obj.Values(nx.sp.Attr(l))
	if l == nx.B() {
		kc := make(keyCounts)
		for _, v := range vals {
			kc[string(EncodeValue(v))]++
		}
		return kc, nil
	}
	var children []oodb.OID
	for _, v := range vals {
		if v.Kind == oodb.RefVal {
			children = append(children, v.Ref)
		}
	}
	return nx.collectChildPointers(children)
}

// B returns the subpath's ending level.
func (nx *NestedInheritedIndex) B() int { return nx.sp.B }

// OnInsert implements the insertion algorithm of Section 3.1: update the
// children's 3-tuples, add the object to the reachable primary records,
// and insert its own 3-tuple.
func (nx *NestedInheritedIndex) OnInsert(obj *oodb.Object) error {
	l, ok := nx.sp.LevelOf(obj.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", obj.Class)
	}
	nx.ownerClass[obj.OID] = obj.Class
	pos := nx.classPos[obj.Class]

	// Step 2: visit children tuples, record parenthood, gather pointers.
	if l < nx.sp.B {
		for _, c := range obj.Refs(nx.sp.Attr(l)) {
			t, ok, err := nx.getAux(c)
			if err != nil {
				return err
			}
			if !ok {
				t = &auxTuple{}
			}
			t.addParent(obj.OID)
			nx.putAux(c, t)
		}
	}
	kc, err := nx.childKeys(obj, l)
	if err != nil {
		return err
	}

	// Step 3: add the object to each reachable primary record.
	for k, cnt := range kc {
		rec, err := nx.loadRecord([]byte(k))
		if err != nil {
			return err
		}
		if i := rec.find(pos, obj.OID); i >= 0 {
			rec.sections[pos][i].count += uint32(cnt)
		} else {
			rec.sections[pos] = append(rec.sections[pos], nixEntry{oid: obj.OID, count: uint32(cnt)})
		}
		nx.storeRecord([]byte(k), rec)
	}

	// Step 4: the object's own 3-tuple (levels above A only; the first
	// class and its subclasses have no parents and no tuples).
	if l > nx.sp.A {
		t := &auxTuple{}
		for k := range kc {
			t.addPointer([]byte(k))
		}
		nx.putAux(obj.OID, t)
	}
	return nil
}

// OnDelete implements the deletion algorithm of Section 3.1 with the
// numchild cascade: remove the object from every primary record containing
// it, decrement its parents' counts, and propagate removals whose counts
// reach zero.
func (nx *NestedInheritedIndex) OnDelete(obj *oodb.Object) error {
	l, ok := nx.sp.LevelOf(obj.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", obj.Class)
	}

	// Step 1/2: determine SV; update children's tuples; fetch own tuple.
	if l < nx.sp.B {
		for _, c := range obj.Refs(nx.sp.Attr(l)) {
			t, ok, err := nx.getAux(c)
			if err != nil {
				return err
			}
			if ok {
				t.removeParent(obj.OID)
				nx.putAux(c, t)
			}
		}
	}
	var pointers [][]byte
	var parents []oodb.OID
	if l > nx.sp.A {
		t, ok, err := nx.getAux(obj.OID)
		if err != nil {
			return err
		}
		if ok {
			pointers = t.pointers
			parents = t.parents
			nx.aux.Delete(EncodeOID(obj.OID))
		}
	} else {
		// Level-A objects have no tuple; their records are reachable
		// through their children (or are the values themselves at B==A).
		kc, err := nx.childKeys(obj, l)
		if err != nil {
			return err
		}
		for k := range kc {
			pointers = append(pointers, []byte(k))
		}
	}

	// Step 3: remove the object from each primary record and cascade.
	for _, k := range pointers {
		rec, err := nx.loadRecord(k)
		if err != nil {
			return err
		}
		if err := nx.cascadeRemove(rec, k, l, obj.OID, parents); err != nil {
			return err
		}
		nx.storeRecord(k, rec)
	}
	delete(nx.ownerClass, obj.OID)
	return nil
}

// OnUpdate implements incremental in-place update maintenance. The
// subpath attribute of the object's level is diffed:
//
//   - children dropped by a re-link lose this object from their 3-tuples'
//     parent lists, gained children acquire it;
//   - primary keys the object no longer reaches get the full deletion
//     cascade (its entry removed, ancestors' numchild decremented,
//     zero-count ancestors dropped recursively — cascadeRemove);
//   - keys newly reached get the mirror-image insertion cascade: the
//     object's entry added and the chain of ancestors above it re-keyed
//     into the record through the auxiliary index (cascadeAdd), never by
//     navigating the database;
//   - keys reached before and after only have the entry's numchild
//     reseeded.
//
// A delete-then-reinsert of the whole chain would touch every record the
// object reaches; the diff touches only the records whose membership
// actually changes.
func (nx *NestedInheritedIndex) OnUpdate(old, upd *oodb.Object) error {
	l, ok := nx.sp.LevelOf(old.Class)
	if !ok {
		return fmt.Errorf("index: class %s not in subpath scope", old.Class)
	}
	attr := nx.sp.Attr(l)
	if oodb.ValuesEqual(old.Values(attr), upd.Values(attr)) {
		return nil
	}
	// Re-parent the children's 3-tuples (their pointer sets are untouched:
	// pointers track the keys a child reaches, not who references it).
	if l < nx.sp.B {
		oldRefs := refSet(old.Refs(attr))
		updRefs := refSet(upd.Refs(attr))
		for c := range oldRefs {
			if updRefs[c] {
				continue
			}
			t, ok, err := nx.getAux(c)
			if err != nil {
				return err
			}
			if ok {
				t.removeParent(old.OID)
				nx.putAux(c, t)
			}
		}
		for c := range updRefs {
			if oldRefs[c] {
				continue
			}
			t, ok, err := nx.getAux(c)
			if err != nil {
				return err
			}
			if !ok {
				t = &auxTuple{}
			}
			t.addParent(old.OID)
			nx.putAux(c, t)
		}
	}
	// The keys reached before come from the object's own 3-tuple (level-A
	// objects have none; their keys are re-derived through their old
	// children), the keys reached after from the new state.
	var oldKeys [][]byte
	var oldKC keyCounts // level-A only: numchild per key before the update
	var parents []oodb.OID
	tup := &auxTuple{}
	if l > nx.sp.A {
		t, ok, err := nx.getAux(old.OID)
		if err != nil {
			return err
		}
		if ok {
			tup = t
			oldKeys = t.pointers
			parents = t.parents
		}
	} else {
		kc, err := nx.childKeys(old, l)
		if err != nil {
			return err
		}
		oldKC = kc
		for k := range kc {
			oldKeys = append(oldKeys, []byte(k))
		}
	}
	newKC, err := nx.childKeys(upd, l)
	if err != nil {
		return err
	}
	for _, k := range oldKeys {
		if _, keep := newKC[string(k)]; keep {
			continue
		}
		rec, err := nx.loadRecord(k)
		if err != nil {
			return err
		}
		if err := nx.cascadeRemove(rec, k, l, old.OID, parents); err != nil {
			return err
		}
		nx.storeRecord(k, rec)
	}
	oldSet := make(map[string]bool, len(oldKeys))
	for _, k := range oldKeys {
		oldSet[string(k)] = true
	}
	pos := nx.classPos[old.Class]
	for k, cnt := range newKC {
		// Keys reached both before and after only need their numchild
		// reseeded — and not even that when the count is unchanged: at
		// level A the old counts were just derived (skip without touching
		// the tree), above it the read confirms before any write.
		if oldSet[k] && oldKC != nil && oldKC[k] == cnt {
			continue
		}
		rec, err := nx.loadRecord([]byte(k))
		if err != nil {
			return err
		}
		if oldSet[k] {
			if i := rec.find(pos, old.OID); i >= 0 {
				if rec.sections[pos][i].count == uint32(cnt) {
					continue
				}
				rec.sections[pos][i].count = uint32(cnt)
			} else {
				rec.sections[pos] = append(rec.sections[pos], nixEntry{oid: old.OID, count: uint32(cnt)})
			}
		} else if err := nx.cascadeAdd(rec, []byte(k), l, old.OID, uint32(cnt), parents); err != nil {
			return err
		}
		nx.storeRecord([]byte(k), rec)
	}
	// Refresh the object's own pointer set to the keys now reached.
	if l > nx.sp.A {
		tup.pointers = tup.pointers[:0]
		for k := range newKC {
			tup.addPointer([]byte(k))
		}
		nx.putAux(old.OID, tup)
	}
	return nil
}

// cascadeAdd inserts the entry (oid, count) at level l into rec (keyed by
// k) and repairs the chain above it — the mirror image of cascadeRemove:
// an aggregation parent already present in the record gains one child
// (numchild incremented); a parent not yet in the record enters it with
// numchild 1, k is added to its pointer set, and the cascade recurses
// with the parent's own parents from the auxiliary index. An update deep
// in the path thereby re-keys every ancestor without touching the object
// store.
func (nx *NestedInheritedIndex) cascadeAdd(rec *nixRecord, k []byte, l int, oid oodb.OID, count uint32, parents []oodb.OID) error {
	cls, ok := nx.ownerClass[oid]
	if !ok {
		return fmt.Errorf("index: NIX has no class recorded for object %d", oid)
	}
	pos := nx.classPos[cls]
	if i := rec.find(pos, oid); i >= 0 {
		rec.sections[pos][i].count += count
	} else {
		rec.sections[pos] = append(rec.sections[pos], nixEntry{oid: oid, count: count})
	}
	if l == nx.sp.A {
		return nil // no parents within the subpath
	}
	for _, p := range parents {
		found := false
		for _, cn := range nx.sp.classesAt(l - 1) {
			cp := nx.classPos[cn]
			if j := rec.find(cp, p); j >= 0 {
				rec.sections[cp][j].count++
				found = true
				break
			}
		}
		if found {
			continue // the parent already reached k through another child
		}
		var grandparents []oodb.OID
		if l-1 > nx.sp.A {
			t, ok, err := nx.getAux(p)
			if err != nil {
				return err
			}
			if ok {
				t.addPointer(k)
				nx.putAux(p, t)
				grandparents = t.parents
			}
		}
		if err := nx.cascadeAdd(rec, k, l-1, p, 1, grandparents); err != nil {
			return err
		}
	}
	return nil
}

// cascadeRemove deletes the entry of oid at level l from rec (keyed by k)
// and propagates numchild decrements to the given parents; parents whose
// count reaches zero are removed recursively, their own parents fetched
// from the auxiliary index (steps 3a–3c).
func (nx *NestedInheritedIndex) cascadeRemove(rec *nixRecord, k []byte, l int, oid oodb.OID, parents []oodb.OID) error {
	// Remove the entry itself (search the level's classes).
	for _, cn := range nx.sp.classesAt(l) {
		pos := nx.classPos[cn]
		if i := rec.find(pos, oid); i >= 0 {
			rec.sections[pos] = append(rec.sections[pos][:i], rec.sections[pos][i+1:]...)
			break
		}
	}
	if l == nx.sp.A {
		return nil // no parents within the subpath
	}
	for _, p := range parents {
		var pos, i int = -1, -1
		for _, cn := range nx.sp.classesAt(l - 1) {
			cp := nx.classPos[cn]
			if j := rec.find(cp, p); j >= 0 {
				pos, i = cp, j
				break
			}
		}
		if pos < 0 {
			continue // parent does not reach this record
		}
		if rec.sections[pos][i].count > 1 {
			rec.sections[pos][i].count--
			continue
		}
		// Count reaches zero: remove the parent entry, fix its tuple, and
		// recurse with its own parents.
		var grandparents []oodb.OID
		if l-1 > nx.sp.A {
			t, ok, err := nx.getAux(p)
			if err != nil {
				return err
			}
			if ok {
				t.removePointer(k)
				nx.putAux(p, t)
				grandparents = t.parents
			}
		}
		if err := nx.cascadeRemove(rec, k, l-1, p, grandparents); err != nil {
			return err
		}
	}
	return nil
}

// BoundaryDelete removes the primary record keyed by a deleted level-B+1
// OID and erases the dangling pointers from the auxiliary tuples of every
// object the record listed (Definition 4.2, NIX case with delpoint).
func (nx *NestedInheritedIndex) BoundaryDelete(oid oodb.OID) error {
	if nx.sp.EndsPath() {
		return nil
	}
	k := EncodeOID(oid)
	raw, ok := nx.primary.Get(k)
	if !ok {
		return nil
	}
	rec, err := nx.decodeRecord(raw)
	if err != nil {
		return err
	}
	for l := nx.sp.A; l <= nx.sp.B; l++ {
		if l == nx.sp.A {
			continue // level-A objects have no tuples
		}
		for _, cn := range nx.sp.classesAt(l) {
			for _, e := range rec.sections[nx.classPos[cn]] {
				t, ok, err := nx.getAux(e.oid)
				if err != nil {
					return err
				}
				if ok {
					t.removePointer(k)
					nx.putAux(e.oid, t)
				}
			}
		}
	}
	nx.primary.Delete(k)
	return nil
}

// loadRecord fetches and decodes the record under an encoded key,
// returning an empty record when absent. During a bulk load it returns
// the table's record itself, entering an empty one on a miss.
func (nx *NestedInheritedIndex) loadRecord(k []byte) (*nixRecord, error) {
	if nx.table != nil {
		rec, ok := nx.table.records[string(k)]
		if !ok {
			rec = nx.newRecord()
			nx.table.records[string(k)] = rec
		}
		return rec, nil
	}
	raw, ok := nx.primary.Get(k)
	if !ok {
		return nx.newRecord(), nil
	}
	return nx.decodeRecord(raw)
}

// storeRecord writes a record back, deleting it when empty. During a bulk
// load the table already holds rec, and the write waits for the flush.
func (nx *NestedInheritedIndex) storeRecord(k []byte, rec *nixRecord) {
	if nx.table != nil {
		return
	}
	if rec.empty() {
		nx.primary.Delete(k)
		return
	}
	nx.primary.Insert(k, nx.encodeRecord(rec))
}
