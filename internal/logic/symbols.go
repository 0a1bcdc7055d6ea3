package logic

import (
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the interned-ID data plane. Every term and every
// predicate has an int32 symbol id; atoms carry their id tuple plus a
// precomputed 64-bit hash, instances index atoms by ids, and the matcher
// unifies on ids, so the chase hot path never builds or hashes Term.Key()
// strings.
//
// Id space: variables receive ids < 0, so a sign test classifies a term
// during matching. Constants, fresh terms and foreign term kinds are
// interned into a process-wide Symbols table, which hands them dense ids
// in [0, NullIDs). A null's id is NullIDs plus its factory id, so nulls
// take [NullIDs, 2^31) and creating one touches no shared state. Term
// identity is id identity: IDOf(s) == IDOf(t) iff s.Key() == t.Key().

// Symbols interns every term kind but nulls, and predicates, into dense
// int32 ids. The zero value is not usable; the package maintains one
// process-wide table that all atoms share, so ids are comparable across
// instances, TGD sets and chase runs within one process.
//
// Concurrency: the table is safe for concurrent use. Lookups (IDOf on a
// known symbol, TermOfID, PredOfID, and the internal lookup helpers) are
// lock-free: the per-kind tables are sync.Maps or, for frozen constants,
// an immutable table behind an atomic pointer, and the dense id->symbol
// views are copy-on-write slices behind atomic pointers, so concurrent
// chase jobs never serialize on the table. Only the interning of a
// genuinely new symbol takes the writer mutex, which serializes id
// assignment; symbols are append-only and never removed, so a published
// (symbol, id) pair is immutable.
//
// Nulls are not stored in the table: a null's id is a function of its
// factory id, and keeping every null ever chased alive in a process-wide
// table would leak across runs. TermOfID therefore resolves every term
// kind except nulls.
type Symbols struct {
	mu     sync.Mutex   // serializes writers; readers never take it
	nextID atomic.Int32 // next unassigned ground id, below NullIDs

	frozen    atomic.Pointer[constTable] // constants frozen so far; see freeze
	recent    []Constant                 // writers only: the constants not yet frozen
	constants sync.Map                   // Constant -> int32, for the recent constants
	fresh     sync.Map                   // Fresh -> int32
	foreign   sync.Map                   // Key() string of non-built-in Term kinds -> int32
	ground    sync.Map                   // ground id (int32) -> Term; nulls and frozen constants excluded
	variables sync.Map                   // Variable -> int32

	// vars and predList are small, append-only, copy-on-write: writers
	// (under mu) publish a fresh slice, readers load the pointer and index.
	vars     atomic.Pointer[[]Variable]  // variable index -> variable (id = -1-index)
	preds    sync.Map                    // Predicate -> int32
	predList atomic.Pointer[[]Predicate] // predicate id -> predicate
}

func newSymbols() *Symbols {
	s := &Symbols{}
	s.frozen.Store(&constTable{offs: []int{0}})
	s.vars.Store(new([]Variable))
	s.predList.Store(new([]Predicate))
	return s
}

// symtab is the process-wide symbol table.
var symtab = newSymbols()

// NullIDs bounds the factory ids of nulls and the ids the symbol table
// hands out: a null's symbol id is NullIDs plus its factory id.
const NullIDs = 1 << 30

// IDOf returns the symbol id of the term, interning it first if
// necessary. Ground terms get ids >= 0, variables ids < 0. A null's id is
// NullIDs plus its factory id, so the common chase case takes no lock;
// known symbols resolve through the lock-free read path.
func IDOf(t Term) int32 {
	if n, ok := t.(*Null); ok {
		return NullIDs + int32(n.id)
	}
	return symtab.intern(t)
}

// TermOfID returns the term interned under the id, or nil for ids that
// were never handed out or name nulls (a null lives in its factory, not
// the table). It is lock-free and safe for concurrent use.
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
	// A constant leaves ground only after a frozen table holding it is
	// published, so probing the table after ground misses nothing.
	return symtab.frozen.Load().constant(id)
}

// GroundIDs returns the number of ground symbol ids the table has handed
// out — one per constant, fresh term and foreign term interned; nulls take
// none. Interning panics once it reaches NullIDs. It is lock-free and safe
// for concurrent use.
func GroundIDs() int64 { return int64(symtab.nextID.Load()) }

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
	if _, isNull := t.(*Null); isNull {
		return IDOf(t), true
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
		s.recent = append(s.recent, x)
		if len(s.recent) >= max(minRecent, len(s.frozen.Load().ids)/16) {
			s.freeze()
		}
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
		// A constant leaves the sync.Map only after a frozen table
		// holding it is published, so a miss in both reloads the table.
		f := s.frozen.Load()
		if id, ok := f.id(x); ok {
			return id, true
		}
		if id, ok = s.constants.Load(x); !ok {
			if g := s.frozen.Load(); g != f {
				return g.id(x)
			}
		}
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
// an id can always resolve it back. Callers hold mu.
func (s *Symbols) addGround(t Term) int32 {
	id := s.nextID.Load()
	if id == NullIDs {
		// Past it, ids would name nulls.
		panic("logic: ground symbol id space exhausted (2^30 ids)")
	}
	s.nextID.Store(id + 1)
	s.ground.Store(id, t)
	return id
}

// Constants are frozen in batches into a constTable, which the garbage
// collector does not trace. A service meets new constants with every
// request that brings new data, and none is ever freed. Kept in sync.Maps,
// each is a handful of small heap objects that every collection traces
// again, so mark work, and with it latency, would grow with every constant
// the process has seen. Only the constants interned since the last freeze
// stay in the sync.Maps. A freeze waits until they number a sixteenth of
// the frozen ones, and at least minRecent, so over the process's life each
// constant is copied a bounded number of times.
const minRecent = 256

// freeze moves the recent constants into a new frozen table. It publishes
// the table before it deletes them from the sync.Maps, so a reader finds
// each in one or the other. Callers hold mu.
func (s *Symbols) freeze() {
	ids := make([]int32, len(s.recent))
	for i, c := range s.recent {
		id, _ := s.constants.Load(c)
		ids[i] = id.(int32)
	}
	s.frozen.Store(s.frozen.Load().with(s.recent, ids))
	for i, c := range s.recent {
		s.constants.Delete(c)
		s.ground.Delete(ids[i])
	}
	s.recent = s.recent[:0]
}

// constSeed seeds the hash that places frozen constants.
var constSeed = maphash.MakeSeed()

func constTag(c Constant) uint32 { return uint32(maphash.String(constSeed, string(c)) >> 32) }

// constTable is an immutable set of constants in interning order, so their
// ids ascend. It holds no pointer but those to its four arrays.
type constTable struct {
	bytes  []byte   // every constant's bytes, back to back
	offs   []int    // constant i is bytes[offs[i]:offs[i+1]]
	ids    []int32  // constant i's symbol id
	byName tagTable // top half of the hash of a constant's bytes -> i
}

func (c *constTable) name(i int) []byte { return c.bytes[c.offs[i]:c.offs[i+1]] }

func (c *constTable) id(k Constant) (int32, bool) {
	i, _ := c.byName.find(constTag(k), func(i int32) bool { return string(c.name(int(i))) == string(k) })
	if i < 0 {
		return 0, false
	}
	return c.ids[i], true
}

// constant returns the constant with the id, or nil.
func (c *constTable) constant(id int32) Term {
	if i, ok := slices.BinarySearch(c.ids, id); ok {
		return Constant(c.name(i))
	}
	return nil
}

// with returns a table of c's constants followed by the given ones, whose
// ids are aligned and above c's. c itself is left as it was.
func (c *constTable) with(names []Constant, ids []int32) *constTable {
	out := &constTable{
		bytes:  slices.Clip(c.bytes),
		offs:   slices.Clip(c.offs),
		ids:    append(slices.Clip(c.ids), ids...),
		byName: c.byName.clone(),
	}
	out.byName.reserve(len(names))
	for k, name := range names {
		out.bytes = append(out.bytes, name...)
		out.offs = append(out.offs, len(out.bytes))
		// name is not in c, so its probe ends at a free slot.
		tag := constTag(name)
		_, free := out.byName.find(tag, noValue)
		out.byName.put(free, tag, int32(len(c.ids)+k))
	}
	return out
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
	ti.ids.reserve(1)
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
