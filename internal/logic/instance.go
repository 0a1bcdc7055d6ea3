package logic

import (
	"iter"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Instance is a set of atoms over constants and nulls (a database when all
// atoms are facts). Atoms are stored once, in insertion order; an atom's
// position in that order is its insertion sequence, and every index holds
// int32 sequences rather than atom pointers, in flat open-addressed tables
// (table.go):
//
//   - the atom set is one []uint64 of slots, each packing the top half of
//     an atom's hash with its sequence, so Add, Has and Canonical resolve
//     an atom with one probe and an id-tuple comparison;
//   - per predicate id, the rows are the sequences of the predicate's
//     atoms, found through a small table of predicate ids;
//   - postings list, per (predicate, position, term id), the sequences of
//     the atoms carrying that term at that position. Each predicate's
//     positions are numbered as instance columns when its first atom is
//     inserted, so a posting is keyed by one uint64 (column, term id).
//
// Every row list and posting lives in one []int32 sequence arena, as an
// (offset, length) pair with room up to the next power of two; a full list
// moves to the arena's end at twice the size, so a posting that never
// grows past one sequence costs 4 bytes and no allocation. Offsets are
// int32, which bounds the arena at 2^31-1 entries (Add panics beyond it).
//
// Every list is ascending, because sequences are handed out in insertion
// order: iteration and semi-naive deltas are deterministic, and an age
// window (the atoms with sequence in [lo, hi)) is a binary-searched
// sub-slice. No string key is built or hashed on any of these paths, and
// since no index array holds a pointer, the garbage collector scans only
// the atoms.
//
// Concurrency contract: an Instance is not safe for concurrent mutation,
// but while no Add runs, every read — Atoms, Len, Has, Canonical, ByPred,
// AtomsOf, AtomsAt, HasDeltaFor, Predicates, Clone, and homomorphism
// search over the instance — may be issued from many goroutines
// simultaneously: only Add writes, and no read grows a table. The
// serving scheduler relies on this when its jobs clone one shared input
// instance from many workers. A clone and its source may be mutated by
// different goroutines, since a clone shares no index array with its
// source (see Clone). Atom.Key() and methods built on it (String,
// CanonicalKey, SortAtoms) are excluded from the contract: the key is
// cached lazily without synchronization, so materialize keys only from
// one goroutine.
type Instance struct {
	// order is the only place atoms are held: sequence s reads back as
	// order[s].
	order    []*Atom
	atoms    tagTable // hash tag -> sequence
	predAt   tagTable // predicate id -> index in preds
	preds    []predRows
	postings postingTable
	seqs     []int32 // the sequence arena every row list and posting lives in
	ncols    int32   // columns numbered so far
}

// predRows is one predicate's part of the index: its id, the sequences of
// its atoms, and the instance column of its first position (position i is
// column col+i).
type predRows struct {
	pid  int32
	col  int32
	rows seqList
}

func postingKey(col, term int32) uint64 {
	return uint64(uint32(col))<<32 | uint64(uint32(term))
}

// NewInstance returns an empty instance.
func NewInstance() *Instance { return &Instance{} }

// NewDatabase builds an instance from the given atoms, in order, sized for
// all of them up front.
func NewDatabase(atoms ...*Atom) *Instance {
	cells := len(atoms)
	for _, a := range atoms {
		cells += len(a.ids)
	}
	in := &Instance{
		order:    make([]*Atom, 0, len(atoms)),
		atoms:    tagTable{slots: make([]uint64, tableSlots(len(atoms)))},
		postings: postingTable{slots: make([]posting, tableSlots(len(atoms)))},
		seqs:     make([]int32, 0, 2*cells),
	}
	for _, a := range atoms {
		in.Add(a)
	}
	return in
}

// Add inserts the atom and reports whether it was new.
func (in *Instance) Add(a *Atom) bool {
	in.atoms.reserve()
	tag := uint32(a.hash >> 32)
	s, free := in.atoms.find(tag, func(s int32) bool { return in.order[s].sameAtom(a) })
	if s >= 0 {
		return false
	}
	seq := int32(len(in.order))
	in.atoms.put(free, tag, seq)
	in.order = append(in.order, a)
	p := in.pred(a.pid)
	if p == nil {
		p = in.addPred(a.pid, len(a.ids))
	}
	p.rows = in.push(p.rows, seq)
	for i, id := range a.ids {
		ps := in.postings.claim(postingKey(p.col+int32(i), id))
		ps.list = in.push(ps.list, seq)
	}
	return true
}

// addPred enters a predicate with the given arity into the index,
// numbering its positions as the next columns.
func (in *Instance) addPred(pid int32, arity int) *predRows {
	in.predAt.reserve()
	_, free := in.predAt.find(uint32(pid), anyValue)
	in.predAt.put(free, uint32(pid), int32(len(in.preds)))
	in.preds = append(in.preds, predRows{pid: pid, col: in.ncols})
	in.ncols += int32(arity)
	return &in.preds[len(in.preds)-1]
}

// AddAll inserts every atom and returns the number of new atoms.
func (in *Instance) AddAll(atoms []*Atom) int {
	n := 0
	for _, a := range atoms {
		if in.Add(a) {
			n++
		}
	}
	return n
}

// lookup returns the insertion sequence of the atom equal to a, or -1.
func (in *Instance) lookup(a *Atom) int {
	s, _ := in.atoms.find(uint32(a.hash>>32), func(s int32) bool {
		b := in.order[s]
		return b == a || b.sameAtom(a)
	})
	return int(s)
}

// pred returns the index entry of the predicate with id pid, or nil when
// the instance holds none of its atoms.
func (in *Instance) pred(pid int32) *predRows {
	if i, _ := in.predAt.find(uint32(pid), anyValue); i >= 0 {
		return &in.preds[i]
	}
	return nil
}

// rows returns the sequences of the atoms of the predicate with id pid.
func (in *Instance) rows(pid int32) []int32 {
	if p := in.pred(pid); p != nil {
		return in.list(p.rows)
	}
	return nil
}

// posting returns the sequences of the atoms carrying term id tid in
// instance column col, a column of a predicate the instance holds atoms
// of (so the posting table has slots).
func (in *Instance) posting(col, tid int32) []int32 {
	return in.list(in.postings.slots[in.postings.find(postingKey(col, tid))].list)
}

// Has reports whether the instance contains the atom.
func (in *Instance) Has(a *Atom) bool { return in.lookup(a) >= 0 }

// Canonical returns the instance's own copy of an atom equal to a, or nil
// when absent. It lets callers exchange structurally equal atoms for the
// pointer stored in the instance.
func (in *Instance) Canonical(a *Atom) *Atom {
	if s := in.lookup(a); s >= 0 {
		return in.order[s]
	}
	return nil
}

// Len returns the number of atoms.
func (in *Instance) Len() int { return len(in.order) }

// Atoms returns the atoms in insertion order. The returned slice is shared;
// callers must not modify it.
func (in *Instance) Atoms() []*Atom { return in.order }

// ByPred returns the atoms with the given predicate, in insertion order,
// as a fresh slice.
func (in *Instance) ByPred(p Predicate) []*Atom { return in.atomsAt(in.rowsOf(p)) }

// AtomsOf yields the atoms with the given predicate, in insertion order,
// read straight from the index: unlike ByPred it copies nothing, so a scan
// that stops at its first hit costs no more than the atoms it visits.
func (in *Instance) AtomsOf(p Predicate) iter.Seq[*Atom] {
	return func(yield func(*Atom) bool) {
		for _, s := range in.rowsOf(p) {
			if !yield(in.order[s]) {
				return
			}
		}
	}
}

// rowsOf returns the sequences of the predicate's atoms.
func (in *Instance) rowsOf(p Predicate) []int32 {
	// Lookup only: probing for an absent predicate must not intern it.
	pid, ok := lookupPredID(p)
	if !ok {
		return nil
	}
	return in.rows(pid)
}

// HasDeltaFor reports whether the predicate (by interned id) gained at
// least one atom with insertion sequence >= deltaStart. Rows ascend, so
// the last one decides. Semi-naive matching probes it to skip a seed
// position whose predicate gained no atoms.
func (in *Instance) HasDeltaFor(pid int32, deltaStart int) bool {
	rows := in.rows(pid)
	return len(rows) > 0 && int(rows[len(rows)-1]) >= deltaStart
}

// AtomsAt yields the atoms of the predicate with interned id pid that
// carry the term with interned id tid at 0-based argument position pos, in
// insertion order, read straight from the index. Like AtomsOf it copies
// nothing, and since it takes ids it consults no symbol table either. A
// predicate absent from the instance, or a position outside [0, arity),
// yields no atoms.
func (in *Instance) AtomsAt(pid int32, pos int, tid int32) iter.Seq[*Atom] {
	return func(yield func(*Atom) bool) {
		p := in.pred(pid)
		if p == nil || pos < 0 || pos >= PredOfID(pid).Arity {
			return
		}
		for _, s := range in.posting(p.col+int32(pos), tid) {
			if !yield(in.order[s]) {
				return
			}
		}
	}
}

// atomsAt materializes a list of sequences as atoms.
func (in *Instance) atomsAt(seqs []int32) []*Atom {
	if len(seqs) == 0 {
		return nil
	}
	out := make([]*Atom, len(seqs))
	for i, s := range seqs {
		out[i] = in.order[s]
	}
	return out
}

// Predicates returns the distinct predicates of the instance, sorted by
// name then arity.
func (in *Instance) Predicates() []Predicate {
	out := make([]Predicate, 0, len(in.preds))
	for _, p := range in.preds {
		out = append(out, PredOfID(p.pid))
	}
	return SortPredicates(out)
}

// Clone returns an independent copy of the instance. Atoms are immutable
// and shared, and so is the insertion order, handed to the copy clipped to
// its length so that the first Add on either side reallocates it instead
// of writing where the other reads. Every index array and the sequence
// arena are copied whole: cloning costs one memmove per array, with no
// hashing and no work per list, and leaves the two instances sharing no
// array either one ever writes.
func (in *Instance) Clone() *Instance {
	return &Instance{
		order:    slices.Clip(in.order),
		atoms:    in.atoms.clone(),
		predAt:   in.predAt.clone(),
		preds:    slices.Clone(in.preds),
		postings: in.postings.clone(),
		seqs:     slices.Clone(in.seqs),
		ncols:    in.ncols,
	}
}

// MaxNullID returns the largest factory-local null id occurring in the
// instance, or -1 when it contains no nulls. The chase engine seeds its
// run's null factory at MaxNullID()+1 so invented nulls never collide —
// in Key, and hence in CanonicalKey, rendering, and wire re-encoding —
// with nulls the input instance already carries.
func (in *Instance) MaxNullID() int {
	max := -1
	for _, a := range in.order {
		for _, t := range a.Args {
			if n, ok := t.(*Null); ok && n.ID() > max {
				max = n.ID()
			}
		}
	}
	return max
}

// MaxDepth returns the maximum atom depth over the instance (0 when empty
// or all facts).
func (in *Instance) MaxDepth() int {
	max := 0
	for _, a := range in.order {
		if d := a.Depth(); d > max {
			max = d
		}
	}
	return max
}

// IsDatabase reports whether every atom is a fact (constants only).
func (in *Instance) IsDatabase() bool {
	for _, a := range in.order {
		if !a.IsFact() {
			return false
		}
	}
	return true
}

// String renders the instance as a sorted, brace-delimited atom set. It is
// intended for small instances in tests and error messages.
func (in *Instance) String() string {
	atoms := make([]*Atom, len(in.order))
	copy(atoms, in.order)
	SortAtoms(atoms)
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// CanonicalKey returns a canonical string for the atom set (sorted atom
// keys). Two instances have the same canonical key iff they contain the
// same atoms. Keys, not interned ids, make the result comparable across
// instances built by independent runs (for example two chase runs with
// their own null factories).
func (in *Instance) CanonicalKey() string {
	keys := make([]string, 0, len(in.order))
	for _, a := range in.order {
		keys = append(keys, a.Key())
	}
	sort.Strings(keys)
	return strconv.Itoa(len(keys)) + "|" + strings.Join(keys, "\x02")
}
