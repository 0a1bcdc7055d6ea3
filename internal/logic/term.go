// Package logic provides the first-order data model underlying the chase:
// terms (constants, labeled nulls, variables), predicates and positions,
// atoms, substitutions, instances and databases, and homomorphism search.
//
// Identity is two-layered. The data plane is integer-based: every term and
// predicate is interned into a process-wide symbol table (see symbols.go)
// that assigns dense int32 ids, atoms carry their interned id tuple plus a
// precomputed 64-bit hash, and instances and the matcher operate on ids
// only — within one Symbols table, term identity is interned-id identity.
// Strings remain the presentation and cross-table layer: two terms are the
// same term if and only if their Keys are equal, and keys are what gets
// compared across independently produced instances (CanonicalKey) and
// rendered by the parser and formatters, the only places strings enter or
// leave the system.
//
// Nulls are interned through a NullFactory, which realizes the
// semi-oblivious naming scheme of the paper (a null is uniquely determined
// by the trigger that invents it, restricted to the frontier, and the
// existential variable it stands for).
//
// Concurrency: the process-wide symbol table is safe for concurrent use
// with lock-free reads (see symbols.go), and instances support concurrent
// read-only access between mutations (see the Instance contract). Atoms
// are immutable apart from the lazily cached Key string, and null
// factories are single-goroutine like the chase engine that owns them.
package logic

import (
	"fmt"
	"strconv"
)

// Term is a constant, a labeled null, or a variable.
//
// Equality of terms is equality of keys. Packages outside logic may define
// additional term kinds (for example canonical integers in type atoms) as
// long as their keys cannot collide with the built-in kinds; the built-in
// key prefixes are "c\x00", "n\x00", "v\x00" and "f\x00". Foreign kinds
// are interned by key, so they work everywhere built-in terms do, just
// without the built-in kinds' fast interning paths.
type Term interface {
	// Key returns a string that uniquely identifies the term.
	Key() string
	// String returns a human-readable rendering of the term.
	String() string
}

// Constant is a term from the countably infinite set C of constants.
type Constant string

// Key implements Term.
func (c Constant) Key() string { return "c\x00" + string(c) }

func (c Constant) String() string { return string(c) }

// Variable is a term from the countably infinite set V of variables.
type Variable string

// Key implements Term.
func (v Variable) Key() string { return "v\x00" + string(v) }

func (v Variable) String() string { return string(v) }

// Fresh is an auxiliary term kind used for canonical integers in type atoms
// and for fresh placeholder terms during completion. Fresh terms behave
// like constants for the purposes of homomorphisms (they are never
// substituted).
type Fresh int

// Key implements Term.
func (f Fresh) Key() string { return "f\x00" + strconv.Itoa(int(f)) }

func (f Fresh) String() string { return strconv.Itoa(int(f)) }

// Null is a term from the countably infinite set N of labeled nulls.
// Nulls are created exclusively through a NullFactory; two nulls are the
// same value if and only if they were interned under the same key, so
// pointer equality coincides with term equality within one factory.
type Null struct {
	id    int
	gid   int32  // process-wide symbol id, assigned at creation
	name  string // lazily built by String; not synchronized (presentation, like Atom.Key)
	depth int
}

// Key implements Term. The key is factory-local (it identifies the null
// among its factory's nulls), which keeps instances produced by
// independent chase runs comparable by CanonicalKey.
func (n *Null) Key() string { return "n\x00" + strconv.Itoa(n.id) }

// String returns the printable name of the null (for example "⊥3"). The
// name is built on first use — the chase invents orders of magnitude more
// nulls than it ever renders — and cached without synchronization, like
// the lazy Atom.Key: rendering is single-goroutine by contract.
func (n *Null) String() string {
	if n.name == "" {
		n.name = "⊥" + strconv.Itoa(n.id)
	}
	return n.name
}

// ID returns the factory-assigned identifier of the null.
func (n *Null) ID() int { return n.id }

// Depth returns the depth of the null per Definition 4.3 of the paper:
// 1 + the maximum depth over the frontier terms of the trigger that
// invented it (0 if the frontier is empty).
func (n *Null) Depth() int { return n.depth }

// NullFactory interns nulls by a caller-chosen key: either an arbitrary
// string, or — on the chase hot path — an int32 tuple of interned symbol
// ids. The chase uses tuples of the form (TGD id, existential index,
// frontier image ids), which realizes the semi-oblivious chase's canonical
// null names without building a string per considered trigger. String and
// tuple keys live in disjoint key spaces; a factory typically uses one or
// the other.
type NullFactory struct {
	byKey    map[string]*Null
	tuples   *TupleInterner
	byTuple  []*Null // tuple id -> null
	all      []*Null
	byID     map[int]*Null // NullAt-created nulls, sparse by caller-chosen id
	base     int           // first id this factory hands out
	maxDepth int
	chunk    []Null // block the next nulls are carved from (newNull)
}

// NewNullFactory returns an empty factory numbering nulls from 0.
func NewNullFactory() *NullFactory {
	return NewNullFactoryAt(0)
}

// NewNullFactoryAt returns an empty factory numbering nulls from base
// upward. The chase engine passes 1 + the largest null id of its input
// instance, so the nulls it invents never reuse a factory-local id (and
// hence a Key) already carried by an input null — chasing an instance
// that itself contains nulls (a decoded wire snapshot, a previous chase
// result) keeps old and new nulls distinct under every Key-derived
// identity (CanonicalKey, rendering, re-encoding).
func NewNullFactoryAt(base int) *NullFactory {
	if base < 0 {
		base = 0
	}
	return &NullFactory{byKey: make(map[string]*Null), base: base}
}

// Intern returns the null registered under key, creating it with the given
// depth if absent. The second result reports whether the null was newly
// created. The depth argument is ignored for an existing null.
func (f *NullFactory) Intern(key string, depth int) (*Null, bool) {
	if n, ok := f.byKey[key]; ok {
		return n, false
	}
	n := f.newNull(depth)
	f.byKey[key] = n
	return n, true
}

// InternTuple is Intern with an interned integer-tuple key. The caller's
// slice is not retained.
func (f *NullFactory) InternTuple(tuple []int32, depth int) (*Null, bool) {
	if f.tuples == nil {
		f.tuples = NewTupleInterner()
	}
	id, fresh := f.tuples.Intern(tuple)
	if !fresh {
		return f.byTuple[id], false
	}
	n := f.newNull(depth)
	f.byTuple = append(f.byTuple, n) // id == len(f.byTuple) by construction
	return n, true
}

// newNull creates the null with the factory's next dense id.
func (f *NullFactory) newNull(depth int) *Null {
	n := f.carve(f.base+len(f.all), depth)
	f.all = append(f.all, n)
	return n
}

// carve creates a null in the factory's current block: nulls escape with
// the instance that references them, so blocks are abandoned (never
// recycled) once full, and the per-null heap cost amortizes to 1/nullChunk
// allocations. Names are built lazily by String.
func (f *NullFactory) carve(id, depth int) *Null {
	const nullChunk = 64
	if len(f.chunk) == cap(f.chunk) {
		f.chunk = make([]Null, 0, nullChunk)
	}
	f.chunk = f.chunk[:len(f.chunk)+1]
	n := &f.chunk[len(f.chunk)-1]
	*n = Null{id: id, depth: depth}
	n.gid = registerNull(n)
	if depth > f.maxDepth {
		f.maxDepth = depth
	}
	return n
}

// NullAt returns the factory's null with the given factory id, creating
// it with the given depth if absent. It exists for decoders that must
// reproduce another factory's id assignment exactly (internal/wire):
// NullAt-created nulls live in a sparse id map, so an id set with gaps
// round-trips without inventing nulls the source factory's instance never
// exposed, and the depth argument is ignored for an id that already
// exists. A factory used through NullAt must not also use
// Intern/InternTuple — the two numbering disciplines would collide — and
// its Len excludes NullAt-created nulls.
func (f *NullFactory) NullAt(id, depth int) *Null {
	if n, ok := f.byID[id]; ok {
		return n
	}
	if f.byID == nil {
		f.byID = make(map[int]*Null)
	}
	n := f.carve(id, depth)
	f.byID[id] = n
	return n
}

// LookupNullAt returns the NullAt-created null with the given factory id,
// or nil when there is none. Unlike NullAt it never creates a null, so a
// decoder can check a declaration against the stream's earlier ones
// before it commits to anything.
func (f *NullFactory) LookupNullAt(id int) *Null { return f.byID[id] }

// Len returns the number of nulls created so far.
func (f *NullFactory) Len() int { return len(f.all) }

// NextID returns the factory-local id the next Intern/InternTuple-created
// null will carry — the high-water mark of the factory's dense id range
// (base for an empty factory). Checkpointing persists it so a resumed
// chase can number its nulls strictly above every null the checkpointed
// run created, even ones that never reached the instance (a trigger whose
// atoms were all duplicates still interned its nulls).
func (f *NullFactory) NextID() int { return f.base + len(f.all) }

// EachTupleNull calls fn for every null created through InternTuple, in
// creation order, together with the tuple key that named it. The tuple
// aliases the factory's arena: fn must not retain or mutate it. Nulls
// created through Intern (string keys) or NullAt are not visited. The
// chase's canonical null naming walks this to expand each null's
// (TGD index, existential index, key image ids) tuple into an
// order-independent name.
func (f *NullFactory) EachTupleNull(fn func(n *Null, tuple []int32)) {
	for id, n := range f.byTuple {
		fn(n, f.tuples.at(int32(id)))
	}
}

// MaxDepth returns the maximum depth over all nulls created so far, or 0
// if none exist.
func (f *NullFactory) MaxDepth() int { return f.maxDepth }

// TermDepth returns the depth of a term per Definition 4.3: constants (and
// all non-null terms) have depth 0; a null reports its interned depth.
func TermDepth(t Term) int {
	if n, ok := t.(*Null); ok {
		return n.depth
	}
	return 0
}

// IsGround reports whether the term contains no variables, i.e. it is a
// constant, null, or fresh term.
func IsGround(t Term) bool {
	_, isVar := t.(Variable)
	return !isVar
}

func formatTerms(args []Term) string {
	s := "("
	for i, a := range args {
		if i > 0 {
			s += ","
		}
		s += a.String()
	}
	return s + ")"
}

var _ = fmt.Stringer(Constant(""))
