// Package guarded implements the type machinery for guarded TGDs used by
// Section 8 of the paper: Σ-types, the completion complete(I, Σ) (all
// chase atoms over dom(I), computed without materializing the — possibly
// infinite — chase), atom types type_{D,Σ}(α), and the linearization
// lin(D), lin(Σ) that converts guarded sets into linear ones while
// preserving chase finiteness and term depth (Proposition 8.1). The
// ChTrm(G) decider of Theorem 8.3 reads D only through the predicate set
// of gsimple(D) = simple(lin(D)), which Linearizer.LinearizePredicates
// computes in the same pass over D that types its facts, building neither
// lin(D) nor gsimple(D).
//
// The computation rests on the key property of the guarded chase ("taming
// the infinite chase"): the atoms derivable below an atom α that mention
// only dom(α) are determined by the type of α. The engine maintains a
// global fixpoint over canonical (guard pattern, known atoms) nodes with
// memoized closures; children lift derived atoms over shared terms back to
// their parents until stabilization. When a stabilization returns, every
// closure is final: its atom set no longer changes, so its triggers and
// child types are fixed, and those children already exist and are final
// too. Each stabilization therefore expands only the closures created
// since the previous one, and one completion stabilizes each closure once.
//
// Canonical types are identified by ids, not strings: a type's key is the
// guard's (predicate id, canonical positions) tuple followed by the
// type's distinct atom tuples in ascending order, looked up in a
// per-engine registry. A hit builds nothing; only a miss materializes the
// *Type. The atoms over a guard's domain are found through the instance's
// posting index (every such atom has its first argument in dom(α)), so a
// completion and a linearization do work linear in the database.
package guarded

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/logic"
)

// placeholder is a fresh-term marker used during completion for
// existential witnesses. Placeholders never leak out of the engine: they
// are canonicalized away in child nodes and filtered from lifted atoms.
// They only need to be distinct within one trigger's head, so a TGD's
// i-th existential variable is always placeholder i+1, and the symbol
// table holds at most max |∃(σ)| of them.
type placeholder int

// Key implements logic.Term.
func (p placeholder) Key() string { return "g\x00" + strconv.Itoa(int(p)) }

func (p placeholder) String() string { return "*" + strconv.Itoa(int(p)) }

// Type is a canonical Σ-type: a guard atom whose arguments are the
// canonical integers 1..k (logic.Fresh, first occurrence order as in the
// paper: t1 = 1 and ti ≤ max(previous)+1), together with the set of atoms
// over dom(guard) — including the guard itself — that are known to hold.
type Type struct {
	Guard *logic.Atom
	// Atoms holds the type's atoms (guard included), sorted by key.
	Atoms []*logic.Atom
	id    int32  // dense id in its engine's registry; -1 outside one
	key   string // built lazily by Key
}

// Key returns the canonical identity of the type as a string, comparable
// across engines and processes. Engines identify types by their id key
// and never build it. Like Atom.Key, it is cached without synchronization.
func (t *Type) Key() string {
	if t.key == "" {
		var b strings.Builder
		b.WriteString(t.Guard.Key())
		for _, a := range t.Atoms {
			b.WriteByte('\x03')
			b.WriteString(a.Key())
		}
		t.key = b.String()
	}
	return t.key
}

// Width returns the number of distinct canonical integers of the guard.
func (t *Type) Width() int {
	max := 0
	for _, a := range t.Guard.Args {
		if f, ok := a.(logic.Fresh); ok && int(f) > max {
			max = int(f)
		}
	}
	return max
}

// String renders the type as "R(1,1,2) | {S(2,1), T(1)}".
func (t *Type) String() string {
	others := make([]string, 0, len(t.Atoms)-1)
	for _, a := range t.Atoms {
		if !a.Equal(t.Guard) {
			others = append(others, a.String())
		}
	}
	return t.Guard.String() + " | {" + strings.Join(others, ", ") + "}"
}

// Renaming maps the canonical integers of a type back to the terms they
// rename: canonical integer c stands for terms[c-1], whose interned id is
// ids[c-1].
type Renaming struct {
	terms []logic.Term
	ids   []int32
}

// index returns the 0-based canonical index of the term id, or -1 when the
// term is outside the renaming's domain. Domains have at most ar(Σ) terms,
// so a scan beats a map.
func (r *Renaming) index(id int32) int {
	for k, x := range r.ids {
		if x == id {
			return k
		}
	}
	return -1
}

// InvertAtom maps an atom over canonical integers back to original terms.
// The boolean is false if some integer is outside the renaming (which
// cannot happen for atoms over the type's domain).
func (r *Renaming) InvertAtom(a *logic.Atom) (*logic.Atom, bool) {
	args := make([]logic.Term, len(a.Args))
	ids := make([]int32, len(a.Args))
	for i, t := range a.Args {
		f, ok := t.(logic.Fresh)
		if !ok || f < 1 || int(f) > len(r.ids) {
			return nil, false
		}
		args[i], ids[i] = r.terms[f-1], r.ids[f-1]
	}
	return logic.NewAtomFromIDs(a.Pred, args, a.PredID(), ids), true
}

// canon canonicalizes a guard atom and atoms over its domain into the id
// key of their type. Its buffers are reused across canonicalizations, so
// computing a key allocates nothing.
type canon struct {
	ren   Renaming
	tuple []int32 // the added atoms' tuples: predicate id, then canonical integers
	spans []span  // where each added atom's tuple sits in tuple; spans[0] is the guard
	key   []int32
}

type span struct{ off, end int32 }

func (c *canon) at(s span) []int32 { return c.tuple[s.off:s.end] }

// begin starts a canonicalization: the guard's terms are renamed to
// 1..k in first-occurrence order, and the guard is the first atom.
func (c *canon) begin(guard *logic.Atom) {
	c.ren.terms, c.ren.ids = c.ren.terms[:0], c.ren.ids[:0]
	c.tuple, c.spans = c.tuple[:0], c.spans[:0]
	for i, t := range guard.Args {
		if id := guard.ArgID(i); c.ren.index(id) < 0 {
			c.ren.terms = append(c.ren.terms, t)
			c.ren.ids = append(c.ren.ids, id)
		}
	}
	c.add(guard)
}

// add records the atom when all its terms lie in dom(guard) and reports
// whether it did.
func (c *canon) add(a *logic.Atom) bool {
	off := int32(len(c.tuple))
	c.tuple = append(c.tuple, a.PredID())
	for i := range a.Args {
		k := c.ren.index(a.ArgID(i))
		if k < 0 {
			c.tuple = c.tuple[:off]
			return false
		}
		c.tuple = append(c.tuple, int32(k+1))
	}
	c.spans = append(c.spans, span{off, int32(len(c.tuple))})
	return true
}

// finish computes the id key: the guard's tuple, then the distinct tuples
// of all added atoms (guard included) in ascending order. A predicate id
// fixes its tuple's length, so the key decodes unambiguously. After finish,
// spans holds the distinct tuples in key order.
func (c *canon) finish() []int32 {
	c.key = append(c.key[:0], c.at(c.spans[0])...)
	slices.SortFunc(c.spans, func(x, y span) int { return slices.Compare(c.at(x), c.at(y)) })
	c.spans = slices.CompactFunc(c.spans, func(x, y span) bool { return slices.Equal(c.at(x), c.at(y)) })
	for _, s := range c.spans {
		c.key = append(c.key, c.at(s)...)
	}
	return c.key
}

// build materializes the finished key as a *Type over logic.Fresh terms,
// with its atoms sorted by key.
func (c *canon) build() *Type {
	t := &Type{id: -1, Atoms: make([]*logic.Atom, len(c.spans))}
	gtuple := c.key[:1+logic.PredOfID(c.key[0]).Arity]
	for i, s := range c.spans {
		tuple := c.at(s)
		pred := logic.PredOfID(tuple[0])
		args := make([]logic.Term, len(tuple)-1)
		ids := make([]int32, len(tuple)-1)
		for j, k := range tuple[1:] {
			args[j] = logic.Fresh(k)
			ids[j] = logic.IDOf(args[j])
		}
		t.Atoms[i] = logic.NewAtomFromIDs(pred, args, tuple[0], ids)
		if slices.Equal(tuple, gtuple) {
			t.Guard = t.Atoms[i]
		}
	}
	logic.SortAtoms(t.Atoms)
	return t
}

// Canonicalize builds the canonical type of a guard atom together with the
// atoms over its domain, returning the type and the renaming used. Atoms
// containing terms outside dom(guard) are rejected by panicking: call
// sites filter beforehand.
func Canonicalize(guard *logic.Atom, atoms []*logic.Atom) (*Type, *Renaming) {
	var c canon
	c.begin(guard)
	for _, a := range atoms {
		if !c.add(a) {
			panic("guarded: atom outside guard domain in Canonicalize: " + a.String())
		}
	}
	c.finish()
	return c.build(), &c.ren
}

// registry interns canonical types by id key, numbering them densely in
// discovery order.
type registry struct {
	keys  *logic.TupleInterner
	types []*Type
}

// intern returns the registered type of the finished canonicalization,
// building it on first sight.
func (r *registry) intern(c *canon) *Type {
	id, fresh := r.keys.Intern(c.key)
	if !fresh {
		return r.types[id]
	}
	t := c.build()
	t.id = id
	r.types = append(r.types, t)
	return t
}
