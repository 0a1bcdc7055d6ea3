package logic

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Predicate is a relation symbol with an associated arity. Predicates are
// comparable and can be used as map keys; two predicates are the same
// symbol iff name and arity coincide.
type Predicate struct {
	Name  string
	Arity int
}

// String renders the predicate in the conventional "name/arity" form.
func (p Predicate) String() string { return p.Name + "/" + strconv.Itoa(p.Arity) }

// Position identifies the i-th argument of a predicate, with 1-based index
// as in the paper (a pair (R, i) with i in [arity(R)]).
type Position struct {
	Pred  Predicate
	Index int
}

// String renders the position as "(R,i)".
func (p Position) String() string {
	return "(" + p.Pred.Name + "," + strconv.Itoa(p.Index) + ")"
}

// Positions returns all positions of the predicate, in index order.
func Positions(p Predicate) []Position {
	out := make([]Position, p.Arity)
	for i := range out {
		out[i] = Position{Pred: p, Index: i + 1}
	}
	return out
}

// Atom is a predicate applied to a tuple of terms. Atoms are immutable
// after construction; identity is the interned (predicate, term ids)
// tuple, with a precomputed 64-bit hash for indexing. The string Key is
// derived lazily and only for presentation and cross-table comparison.
type Atom struct {
	Pred Predicate
	Args []Term
	pid  int32   // interned predicate id
	ids  []int32 // interned term ids, aligned with Args
	hash uint64
	key  string // lazily built by Key; not synchronized (single-goroutine use)
}

// NewAtom constructs an atom. It panics if the number of arguments does
// not match the predicate arity; construction sites always control both.
func NewAtom(pred Predicate, args ...Term) *Atom {
	if len(args) != pred.Arity {
		panic(fmt.Sprintf("logic: atom %s constructed with %d arguments", pred, len(args)))
	}
	pid, ids, hash := internAtom(pred, args)
	return &Atom{Pred: pred, Args: args, pid: pid, ids: ids, hash: hash}
}

// MakeAtom constructs an atom for a fresh predicate derived from a name
// and the argument list; it is a convenience for tests and generators.
func MakeAtom(name string, args ...Term) *Atom {
	return NewAtom(Predicate{Name: name, Arity: len(args)}, args...)
}

// NewAtomFromIDs constructs an atom from terms whose interned ids the
// caller already holds — typically assembled from the arguments of other
// atoms, as in the chase's head instantiation. pid must be PredIDOf(pred)
// and ids[i] must be IDOf(args[i]); nothing is validated, and the caller
// must not retain or modify args or ids afterwards.
func NewAtomFromIDs(pred Predicate, args []Term, pid int32, ids []int32) *Atom {
	return &Atom{Pred: pred, Args: args, pid: pid, ids: ids, hash: hashAtom(pid, ids)}
}

// NewAtomsFromIDs builds a batch of atoms over shared storage, with one
// allocation for all their headers: atom i is preds[at[i]] applied to the
// next preds[at[i]].Arity terms of args, whose interned ids are the
// aligned entries of ids. pids[j] must be PredIDOf(preds[j]), ids[k] must
// be IDOf(args[k]), and the arities must sum to len(args) == len(ids);
// nothing is validated. The atoms own args and ids, which the caller must
// not modify afterwards. The wire decoder builds each section this way.
func NewAtomsFromIDs(preds []Predicate, pids, at []int32, args []Term, ids []int32) []*Atom {
	hdrs := make([]Atom, len(at))
	out := make([]*Atom, len(at))
	off := 0
	for i, p := range at {
		end := off + preds[p].Arity
		tuple := ids[off:end:end]
		hdrs[i] = Atom{Pred: preds[p], Args: args[off:end:end], pid: pids[p], ids: tuple, hash: hashAtom(pids[p], tuple)}
		out[i] = &hdrs[i]
		off = end
	}
	return out
}

// Key returns the identity key of the atom (predicate plus term keys). It
// identifies the atom across symbol tables and processes; within one
// process, prefer Equal or the instance indexes, which compare interned
// ids instead.
func (a *Atom) Key() string {
	if a.key == "" {
		var b strings.Builder
		b.WriteString(a.Pred.Name)
		b.WriteByte('\x00')
		b.WriteString(strconv.Itoa(a.Pred.Arity))
		for _, t := range a.Args {
			b.WriteByte('\x01')
			b.WriteString(t.Key())
		}
		a.key = b.String()
	}
	return a.key
}

// PredID returns the interned id of the atom's predicate.
func (a *Atom) PredID() int32 { return a.pid }

// ArgID returns the interned id of the i-th argument.
func (a *Atom) ArgID(i int) int32 { return a.ids[i] }

// sameAtom reports id-tuple equality; callers have typically already
// matched hash tags through a table probe.
func (a *Atom) sameAtom(b *Atom) bool {
	return a.pid == b.pid && int32sEqual(a.ids, b.ids)
}

// String renders the atom as "R(t1,...,tn)".
func (a *Atom) String() string { return a.Pred.Name + formatTerms(a.Args) }

// Equal reports whether a and b denote the same atom.
func (a *Atom) Equal(b *Atom) bool { return a.hash == b.hash && a.sameAtom(b) }

// Depth returns the depth of the atom: the maximum depth over its terms
// (Section 5 of the paper), 0 for a fact.
func (a *Atom) Depth() int {
	d := 0
	for _, t := range a.Args {
		if td := TermDepth(t); td > d {
			d = td
		}
	}
	return d
}

// IsFact reports whether all arguments are constants.
func (a *Atom) IsFact() bool {
	for _, t := range a.Args {
		if _, ok := t.(Constant); !ok {
			return false
		}
	}
	return true
}

// Variables returns the distinct variables of the atom in order of first
// occurrence.
func (a *Atom) Variables() []Variable {
	var out []Variable
	seen := make(map[Variable]bool)
	for _, t := range a.Args {
		if v, ok := t.(Variable); ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// VarPositions returns the positions of the atom at which the variable x
// occurs (the set pos(α, x)).
func (a *Atom) VarPositions(x Variable) []Position {
	var out []Position
	for i, t := range a.Args {
		if t == Term(x) {
			out = append(out, Position{Pred: a.Pred, Index: i + 1})
		}
	}
	return out
}

// Substitution maps variables to terms. It is the computational form of
// the paper's substitutions restricted to variables; constants and nulls
// are always mapped to themselves.
type Substitution map[Variable]Term

// Apply returns the term obtained by applying the substitution: variables
// are replaced when bound (and returned unchanged when not), all other
// terms are fixed.
func (s Substitution) Apply(t Term) Term {
	if v, ok := t.(Variable); ok {
		if img, ok := s[v]; ok {
			return img
		}
	}
	return t
}

// ApplyAtom returns the atom obtained by applying the substitution to
// every argument.
func (s Substitution) ApplyAtom(a *Atom) *Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.Apply(t)
	}
	return NewAtom(a.Pred, args...)
}

// Clone returns a copy of the substitution.
func (s Substitution) Clone() Substitution {
	out := make(Substitution, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Restrict returns the restriction of s to the given variables (h|V in
// the paper's notation).
func (s Substitution) Restrict(vars []Variable) Substitution {
	out := make(Substitution, len(vars))
	for _, v := range vars {
		if img, ok := s[v]; ok {
			out[v] = img
		}
	}
	return out
}

// String renders the substitution deterministically, sorted by variable.
func (s Substitution) String() string {
	keys := make([]string, 0, len(s))
	for v := range s {
		keys = append(keys, string(v))
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "↦" + s[Variable(k)].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// SortAtoms sorts a slice of atoms by key, in place, and returns it. It
// gives a deterministic order for rendering and canonicalization (keys,
// not ids, so the order is independent of interning order).
func SortAtoms(atoms []*Atom) []*Atom {
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].Key() < atoms[j].Key() })
	return atoms
}

// SortPredicates sorts a slice of predicates by name, then arity, in
// place, and returns it: the order Instance.Predicates returns.
func SortPredicates(preds []Predicate) []Predicate {
	slices.SortFunc(preds, func(p, q Predicate) int {
		return cmp.Or(strings.Compare(p.Name, q.Name), cmp.Compare(p.Arity, q.Arity))
	})
	return preds
}
