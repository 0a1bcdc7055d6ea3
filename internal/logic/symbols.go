package logic

import (
	"sync"
	"sync/atomic"
)

// This file implements the interned-ID data plane. A process-wide Symbols
// table maps every term and every predicate to a dense int32 symbol id;
// atoms carry their interned id tuple plus a precomputed 64-bit hash,
// instances index atoms by ids, and the matcher unifies on ids, so the
// chase hot path never builds or hashes Term.Key() strings.
//
// Id space: ground terms — constants, nulls, fresh terms and foreign term
// kinds — receive ids >= 0; variables receive ids < 0, so a sign test
// classifies a term during matching. Within one Symbols table, term
// identity is id identity: IDOf(s) == IDOf(t) iff s and t are the same
// term. For every kind except nulls this coincides with Key() equality;
// null keys are factory-local (two factories render their first null as
// the same key, while their ids stay distinct), which is exactly what
// keeps Key() — and hence CanonicalKey and rendering — usable as the
// cross-run identity when comparing instances produced by independent
// chase runs.

// Symbols interns terms and predicates into dense int32 ids. The zero
// value is not usable; the package maintains one process-wide table that
// all atoms share, so ids are comparable across instances, TGD sets and
// chase runs within one process.
//
// Concurrency: the table is safe for concurrent use. Lookups (IDOf on a
// known symbol, TermOfID, PredOfID, and the internal lookup helpers) are
// lock-free: the per-kind tables are sync.Maps and the dense id->symbol
// views are copy-on-write slices behind atomic pointers, so concurrent
// chase jobs never serialize on the table. Only the interning of a
// genuinely new symbol takes the writer mutex, which serializes id
// assignment; symbols are append-only and never removed, so a published
// (symbol, id) pair is immutable.
//
// Nulls draw their ids from the same ground id space but are not stored
// in the table: a null's identity lives in its factory, and keeping every
// null ever chased alive in a process-wide table would leak across runs.
// TermOfID therefore resolves every term kind except nulls.
type Symbols struct {
	mu     sync.Mutex   // serializes writers; readers never take it
	nextID atomic.Int32 // next unassigned ground id (shared with nulls)

	constants sync.Map // Constant -> int32
	fresh     sync.Map // Fresh -> int32
	foreign   sync.Map // Key() string of non-built-in Term kinds -> int32
	ground    sync.Map // ground id (int32) -> Term; nulls excluded
	variables sync.Map // Variable -> int32

	// vars and predList are small, append-only, copy-on-write: writers
	// (under mu) publish a fresh slice, readers load the pointer and index.
	vars     atomic.Pointer[[]Variable]  // variable index -> variable (id = -1-index)
	preds    sync.Map                    // Predicate -> int32
	predList atomic.Pointer[[]Predicate] // predicate id -> predicate
}

func newSymbols() *Symbols {
	s := &Symbols{}
	s.vars.Store(new([]Variable))
	s.predList.Store(new([]Predicate))
	return s
}

// symtab is the process-wide symbol table.
var symtab = newSymbols()

// IDOf returns the interned symbol id of the term, interning it first if
// necessary. Ground terms get ids >= 0, variables ids < 0. Nulls carry
// their id from creation, so the common chase case takes no lock; known
// symbols resolve through the lock-free read path.
func IDOf(t Term) int32 {
	if n, ok := t.(*Null); ok {
		return n.gid
	}
	return symtab.intern(t)
}

// TermOfID returns the term interned under the id, or nil for ids that
// were never handed out or belong to nulls (which live in their factory,
// not the table). It is lock-free and safe for concurrent use.
func TermOfID(id int32) Term {
	if id < 0 {
		vars := *symtab.vars.Load()
		if i := int(-1 - id); i < len(vars) {
			return vars[i]
		}
		return nil
	}
	if t, ok := symtab.ground.Load(id); ok {
		return t.(Term)
	}
	return nil
}

// PredIDOf returns the interned id of the predicate, interning it first if
// necessary. Known predicates resolve lock-free.
func PredIDOf(p Predicate) int32 {
	if id, ok := symtab.preds.Load(p); ok {
		return id.(int32)
	}
	symtab.mu.Lock()
	defer symtab.mu.Unlock()
	if id, ok := symtab.preds.Load(p); ok {
		return id.(int32)
	}
	list := *symtab.predList.Load()
	id := int32(len(list))
	next := make([]Predicate, len(list)+1)
	copy(next, list)
	next[len(list)] = p
	symtab.predList.Store(&next)
	symtab.preds.Store(p, id)
	return id
}

// PredOfID returns the predicate interned under the id. It is lock-free
// and safe for concurrent use.
func PredOfID(id int32) Predicate {
	return (*symtab.predList.Load())[id]
}

// lookupTermID returns the id of the term without interning it; ok is
// false when the term was never seen. Read-only queries use it so that
// probing for absent symbols does not grow the table.
func lookupTermID(t Term) (int32, bool) {
	if n, isNull := t.(*Null); isNull {
		return n.gid, true
	}
	return symtab.lookup(t)
}

// lookupPredID is lookupTermID for predicates.
func lookupPredID(p Predicate) (int32, bool) {
	id, ok := symtab.preds.Load(p)
	if !ok {
		return 0, false
	}
	return id.(int32), true
}

func (s *Symbols) intern(t Term) int32 {
	if id, ok := s.lookup(t); ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.lookup(t); ok {
		return id
	}
	switch x := t.(type) {
	case Variable:
		vars := *s.vars.Load()
		id := int32(-1 - len(vars))
		next := make([]Variable, len(vars)+1)
		copy(next, vars)
		next[len(vars)] = x
		s.vars.Store(&next)
		s.variables.Store(x, id)
		return id
	case Constant:
		id := s.addGround(t)
		s.constants.Store(x, id)
		return id
	case Fresh:
		id := s.addGround(t)
		s.fresh.Store(x, id)
		return id
	default:
		id := s.addGround(t)
		s.foreign.Store(t.Key(), id)
		return id
	}
}

// lookup is the lock-free read path: one sync.Map load per probe.
func (s *Symbols) lookup(t Term) (int32, bool) {
	var id any
	var ok bool
	switch x := t.(type) {
	case Variable:
		id, ok = s.variables.Load(x)
	case Constant:
		id, ok = s.constants.Load(x)
	case Fresh:
		id, ok = s.fresh.Load(x)
	default:
		id, ok = s.foreign.Load(t.Key())
	}
	if !ok {
		return 0, false
	}
	return id.(int32), true
}

// addGround assigns the next ground id and publishes the id -> term view
// before the caller publishes the term -> id entry, so a reader that finds
// an id can always resolve it back.
func (s *Symbols) addGround(t Term) int32 {
	id := s.nextID.Add(1) - 1
	if id < 0 {
		panic("logic: ground symbol id space exhausted (2^31 ids)")
	}
	s.ground.Store(id, t)
	return id
}

// registerNull assigns a fresh ground id to a newly created null, without
// the writer mutex and without retaining the null: the id counter is
// atomic, and the factory owns the null's lifetime.
func registerNull(*Null) int32 {
	id := symtab.nextID.Add(1) - 1
	if id < 0 {
		// Wraparound would flip the sign-based variable/ground
		// classification and silently corrupt matching; fail loudly.
		panic("logic: ground symbol id space exhausted (2^31 ids)")
	}
	return id
}

// internAtom interns the predicate and every argument of an atom and
// returns the id tuple together with the atom hash. All paths are
// lock-free for symbols already in the table.
func internAtom(pred Predicate, args []Term) (pid int32, ids []int32, hash uint64) {
	ids = make([]int32, len(args))
	pid = PredIDOf(pred)
	for i, t := range args {
		ids[i] = IDOf(t)
	}
	return pid, ids, hashAtom(pid, ids)
}

// FNV-1a folding over int32 words; collisions are tolerated everywhere
// (tables compare id tuples on equal hash tags), so a 64-bit mix is
// plenty.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashWord(h uint64, w int32) uint64 {
	x := uint32(w)
	h = (h ^ uint64(x&0xffff)) * fnvPrime64
	h = (h ^ uint64(x>>16)) * fnvPrime64
	return h
}

func hashAtom(pid int32, ids []int32) uint64 {
	h := hashWord(fnvOffset64, pid)
	for _, id := range ids {
		h = hashWord(h, id)
	}
	return h
}

// TupleInterner hash-conses int32 tuples into dense ids. The chase uses it
// for its fired-trigger set and canonical null names: a trigger key is the
// tuple (TGD id, image ids of the key variables), replacing the string
// keys the engine used to concatenate per considered trigger. Tuples are
// stored in one arena; Intern never retains the caller's slice. The set
// itself is a flat open-addressed table of the instance atom set's kind
// (table.go): each slot packs the top half of a tuple's hash with its id,
// and equal tags are resolved by comparing the arena tuples. A
// TupleInterner is not safe for concurrent use.
type TupleInterner struct {
	ids    tagTable // hash tag -> tuple id
	starts []int32  // starts[i]..starts[i+1] delimit tuple i in arena
	arena  []int32
}

// NewTupleInterner returns an empty interner, sized for 64 tuples.
func NewTupleInterner() *TupleInterner {
	return &TupleInterner{
		ids:    tagTable{slots: make([]uint64, tableSlots(64))},
		starts: append(make([]int32, 0, 64), 0),
		arena:  make([]int32, 0, 256),
	}
}

func hashTuple(tuple []int32) uint64 {
	h := fnvOffset64 ^ uint64(len(tuple))
	for _, w := range tuple {
		h = hashWord(h, w)
	}
	return h
}

// Intern returns the dense id of the tuple, interning it if absent. The
// second result reports whether the tuple was newly interned.
func (ti *TupleInterner) Intern(tuple []int32) (int32, bool) {
	return ti.intern(tuple, hashTuple(tuple))
}

// intern is Intern with the tuple's hash given, the seam through which
// tests forge hash collisions.
func (ti *TupleInterner) intern(tuple []int32, h uint64) (int32, bool) {
	ti.ids.reserve()
	tag := uint32(h >> 32)
	id, free := ti.ids.find(tag, func(id int32) bool { return int32sEqual(ti.at(id), tuple) })
	if id >= 0 {
		return id, false
	}
	id = int32(len(ti.starts) - 1)
	ti.arena = append(ti.arena, tuple...)
	ti.starts = append(ti.starts, int32(len(ti.arena)))
	ti.ids.put(free, tag, id)
	return id, true
}

// Reset empties the interner, retaining allocated capacity, so a pooled
// chase scratch reuses its fired-trigger set across runs.
func (ti *TupleInterner) Reset() {
	clear(ti.ids.slots)
	ti.ids.used = 0
	ti.starts = ti.starts[:1]
	ti.arena = ti.arena[:0]
}

// Len returns the number of distinct tuples interned.
func (ti *TupleInterner) Len() int { return len(ti.starts) - 1 }

func (ti *TupleInterner) at(id int32) []int32 {
	return ti.arena[ti.starts[id]:ti.starts[id+1]]
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}
