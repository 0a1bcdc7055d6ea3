package logic

import (
	"iter"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Instance is a set of atoms over constants and nulls (a database when all
// atoms are facts). Atoms are stored once, in insertion order; an atom's
// position in that order is its insertion sequence (what Seq returns), and
// every index holds int32 sequences rather than atom pointers:
//
//   - the atom set maps each atom's precomputed hash to its sequence, so
//     Add, Has, Canonical and Seq resolve an atom with one hash probe and
//     an id-tuple comparison;
//   - per predicate id, the rows are the sequences of the predicate's
//     atoms;
//   - postings list, per (predicate, position, term id), the sequences of
//     the atoms carrying that term at that position. Each predicate's
//     positions are numbered as instance columns when its first atom is
//     inserted, so a posting is keyed by one uint64 (column, term id).
//
// Every list is ascending, because sequences are handed out in insertion
// order: iteration and semi-naive deltas are deterministic, and an age
// window (the atoms with sequence in [lo, hi)) is a binary-searched
// sub-slice. No string key is built or hashed on any of these paths.
//
// Concurrency contract: an Instance is not safe for concurrent mutation,
// but while no Add runs, every read — Atoms, Len, Seq, Has, Canonical,
// ByPred, AtomsOf, AtPosition, AtomsAt, HasDeltaFor, Clone, and
// homomorphism search over the instance — may be issued from many
// goroutines simultaneously. The parallel chase collector relies on this:
// rounds alternate a read-only matching phase (sharded across workers)
// with a single-goroutine apply phase that mutates the instance. A clone
// and its source may be mutated by different goroutines: the array
// elements they share are never written again (see Clone). Atom.Key() and
// methods built on it (String, CanonicalKey, SortAtoms) are excluded from
// the contract: the key is cached lazily without synchronization, so
// materialize keys only from one goroutine.
type Instance struct {
	// first holds the sequence of the (almost always unique) atom per
	// hash; overflow carries further sequences on the rare hash collision.
	// The split keeps Add at one map insert per atom instead of one slice
	// allocation per atom.
	first    map[uint64]int32
	overflow map[uint64][]int32 // nil until the first collision
	// order is the only place atoms are held: sequence s reads back as
	// order[s].
	order    []*Atom
	byPred   map[int32]predRows
	postings map[uint64][]int32 // postingKey(column, term id) -> sequences
	ncols    int32              // columns numbered so far
}

// predRows is one predicate's part of the index: the sequences of its
// atoms and the instance column of its first position (position i is
// column col+i).
type predRows struct {
	rows []int32
	col  int32
}

func postingKey(col, term int32) uint64 {
	return uint64(uint32(col))<<32 | uint64(uint32(term))
}

// NewInstance returns an empty instance.
func NewInstance() *Instance { return newInstance(0) }

// newInstance returns an empty instance sized for n atoms.
func newInstance(n int) *Instance {
	return &Instance{
		first:    make(map[uint64]int32, n),
		order:    make([]*Atom, 0, n),
		byPred:   make(map[int32]predRows),
		postings: make(map[uint64][]int32, n),
	}
}

// NewDatabase builds an instance from the given atoms, in order, sized for
// all of them up front.
func NewDatabase(atoms ...*Atom) *Instance {
	in := newInstance(len(atoms))
	for _, a := range atoms {
		in.Add(a)
	}
	return in
}

// Add inserts the atom and reports whether it was new.
func (in *Instance) Add(a *Atom) bool {
	seq := int32(len(in.order))
	if s, ok := in.first[a.hash]; !ok {
		in.first[a.hash] = seq
	} else {
		if in.order[s].sameAtom(a) {
			return false
		}
		for _, s := range in.overflow[a.hash] {
			if in.order[s].sameAtom(a) {
				return false
			}
		}
		if in.overflow == nil {
			in.overflow = make(map[uint64][]int32)
		}
		in.overflow[a.hash] = append(in.overflow[a.hash], seq)
	}
	in.order = append(in.order, a)
	p, ok := in.byPred[a.pid]
	if !ok {
		p.col = in.ncols
		in.ncols += int32(len(a.ids))
	}
	p.rows = append(p.rows, seq)
	in.byPred[a.pid] = p
	for i, id := range a.ids {
		k := postingKey(p.col+int32(i), id)
		in.postings[k] = append(in.postings[k], seq)
	}
	return true
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
	s, ok := in.first[a.hash]
	if !ok {
		return -1
	}
	if b := in.order[s]; b == a || b.sameAtom(a) {
		return int(s)
	}
	for _, s := range in.overflow[a.hash] {
		if in.order[s].sameAtom(a) {
			return int(s)
		}
	}
	return -1
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

// Seq returns the insertion sequence number of the atom (or of the
// instance's atom equal to it), or -1 if absent. Semi-naive evaluation
// treats atoms with sequence >= deltaStart as new.
func (in *Instance) Seq(a *Atom) int { return in.lookup(a) }

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
	return in.byPred[pid].rows
}

// HasDeltaFor reports whether the predicate (by interned id) gained at
// least one atom with insertion sequence >= deltaStart. Rows ascend, so
// the last one decides. Semi-naive matching and the parallel collector's
// shard generation share this probe so their seed-skip decisions cannot
// diverge.
func (in *Instance) HasDeltaFor(pid int32, deltaStart int) bool {
	rows := in.byPred[pid].rows
	return len(rows) > 0 && int(rows[len(rows)-1]) >= deltaStart
}

// AtPosition returns the atoms that carry the given term at the given
// 0-based argument position of the predicate, in insertion order, as a
// fresh slice. A position outside [0, arity) holds no atoms.
func (in *Instance) AtPosition(p Predicate, pos int, t Term) []*Atom {
	if pos < 0 || pos >= p.Arity {
		return nil
	}
	// Lookup only: probing for absent symbols must not intern them.
	pid, ok := lookupPredID(p)
	if !ok {
		return nil
	}
	tid, ok := lookupTermID(t)
	if !ok {
		return nil
	}
	pr, ok := in.byPred[pid]
	if !ok {
		return nil
	}
	return in.atomsAt(in.postings[postingKey(pr.col+int32(pos), tid)])
}

// AtomsAt yields the atoms of the predicate with interned id pid that
// carry the term with interned id tid at 0-based argument position pos, in
// insertion order, read straight from the index. It is to AtPosition what
// AtomsOf is to ByPred: it copies nothing, and since it takes ids it
// consults no symbol table either. A predicate absent from the instance,
// or a position outside [0, arity), yields no atoms.
func (in *Instance) AtomsAt(pid int32, pos int, tid int32) iter.Seq[*Atom] {
	return func(yield func(*Atom) bool) {
		pr, ok := in.byPred[pid]
		if !ok || pos < 0 || pos >= PredOfID(pid).Arity {
			return
		}
		for _, s := range in.postings[postingKey(pr.col+int32(pos), tid)] {
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
	out := make([]Predicate, 0, len(in.byPred))
	for pid := range in.byPred {
		out = append(out, PredOfID(pid))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// ActiveDomain returns the distinct terms occurring in the instance
// (dom(I)), in order of first occurrence.
func (in *Instance) ActiveDomain() []Term {
	var out []Term
	seen := make(map[int32]bool)
	for _, a := range in.order {
		for i, t := range a.Args {
			if id := a.ids[i]; !seen[id] {
				seen[id] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// Clone returns an independent copy of the instance. Atoms are immutable
// and shared, and so are the backing arrays of every sequence list: each
// list is handed to the copy clipped to its length, so the first append
// to it in either instance reallocates instead of writing where the other
// reads. Sequences are append-only, so nothing else ever writes to a
// shared array. Cloning costs one map copy per index, with no per-list
// allocation and no rehash of the atoms.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		first:    maps.Clone(in.first),
		order:    slices.Clip(in.order),
		byPred:   make(map[int32]predRows, len(in.byPred)),
		postings: make(map[uint64][]int32, len(in.postings)),
		ncols:    in.ncols,
	}
	if in.overflow != nil {
		out.overflow = make(map[uint64][]int32, len(in.overflow))
		for h, bucket := range in.overflow {
			out.overflow[h] = slices.Clip(bucket)
		}
	}
	for pid, p := range in.byPred {
		p.rows = slices.Clip(p.rows)
		out.byPred[pid] = p
	}
	for k, list := range in.postings {
		out.postings[k] = slices.Clip(list)
	}
	return out
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
