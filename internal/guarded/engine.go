package guarded

import (
	"fmt"
	"slices"

	"repro/internal/logic"
	"repro/internal/tgds"
)

// Engine computes completions for a fixed guarded TGD set. It memoizes
// canonical type closures across calls, so repeated completions (as in
// linearization) share work.
//
// Invariant: every state in order[:stable] is final. A stabilization
// returns only after a pass in which no state grew; from then on a state's
// atom set is fixed, so are its triggers and child types, and its children
// are older states, final as well. Expanding it again could add nothing,
// so each stabilization expands only the states created since the last
// one and then advances stable to the end of order.
type Engine struct {
	sigma  *tgds.Set
	rules  []rule
	reg    registry
	states []*state // by type id; nil for a type that never was a child node
	order  []*state
	stable int
	// preds lists every predicate an instance of the engine can hold:
	// sch(Σ) and the predicates of every instance completed so far.
	preds []predRef
	known map[int32]bool // ids of preds
	mm    logic.Matcher  // no yield callback of the engine starts another match
	canon canon
	adds  []*logic.Atom // deriveOver's result, reused
	heads []*logic.Atom // the current trigger's head atoms
	own   []bool        // per canonical index of the current lift: own term?
	phIDs []int32       // interned ids of placeholder 1, 2, ...
}

type predRef struct {
	pred logic.Predicate
	pid  int32
}

// state is the memoized closure of a canonical type: the atoms over the
// type's guard domain known to be in the chase.
type state struct {
	atoms *logic.Instance
}

// rule is a TGD compiled for derivation. terms and ids are its value
// table: the frontier images of the current match first (overwritten per
// match), then the placeholders of the existential variables, then the
// head's constants.
type rule struct {
	body  []*logic.Atom
	frIDs []int32
	heads []headAtom
	terms []logic.Term
	ids   []int32
}

type headAtom struct {
	pred logic.Predicate
	pid  int32
	src  []int32 // per argument: its index in the value table
	ex   bool    // some argument is an existential placeholder
}

// NewEngine validates that every TGD of sigma is guarded and returns an
// engine.
func NewEngine(sigma *tgds.Set) (*Engine, error) {
	for _, t := range sigma.TGDs {
		if !t.IsGuarded() {
			return nil, fmt.Errorf("guarded: TGD %v is not guarded", t)
		}
	}
	e := &Engine{
		sigma: sigma,
		reg:   registry{keys: logic.NewTupleInterner()},
		known: make(map[int32]bool),
	}
	for _, p := range sigma.Schema() {
		e.notePred(p, logic.PredIDOf(p))
	}
	for _, t := range sigma.TGDs {
		e.rules = append(e.rules, e.compile(t))
	}
	return e, nil
}

// compile builds the rule of a TGD. The i-th existential variable is
// placeholder i+1 in every trigger of every TGD: placeholders only need to
// be distinct within one trigger's head.
func (e *Engine) compile(t *tgds.TGD) rule {
	fr := t.FrontierIDs()
	r := rule{body: t.Body, frIDs: fr, terms: make([]logic.Term, len(fr)), ids: make([]int32, len(fr))}
	var exIDs []int32
	for i, z := range t.Existential() {
		if i == len(e.phIDs) {
			e.phIDs = append(e.phIDs, logic.IDOf(placeholder(i+1)))
		}
		exIDs = append(exIDs, logic.IDOf(z))
		r.terms = append(r.terms, placeholder(i+1))
		r.ids = append(r.ids, e.phIDs[i])
	}
	for _, a := range t.Head {
		h := headAtom{pred: a.Pred, pid: a.PredID(), src: make([]int32, len(a.Args))}
		for i, term := range a.Args {
			id := a.ArgID(i)
			if k := slices.Index(fr, id); k >= 0 {
				h.src[i] = int32(k)
			} else if k := slices.Index(exIDs, id); k >= 0 {
				h.src[i] = int32(len(fr) + k)
				h.ex = true
			} else {
				h.src[i] = int32(len(r.ids)) // a constant
				r.terms = append(r.terms, term)
				r.ids = append(r.ids, id)
			}
		}
		r.heads = append(r.heads, h)
	}
	return r
}

// notePred records a predicate an instance of the engine may hold.
func (e *Engine) notePred(p logic.Predicate, pid int32) {
	if !e.known[pid] {
		e.known[pid] = true
		e.preds = append(e.preds, predRef{p, pid})
	}
}

func (e *Engine) getState(t *Type) *state {
	e.states = growTo(e.states, t.id)
	if s := e.states[t.id]; s != nil {
		return s
	}
	s := &state{atoms: logic.NewDatabase(t.Atoms...)}
	e.states[t.id] = s
	e.order = append(e.order, s)
	return s
}

// growTo extends s with zero values until id indexes it.
func growTo[T any](s []T, id int32) []T {
	for int(id) >= len(s) {
		var zero T
		s = append(s, zero)
	}
	return s
}

// stabilize runs the global fixpoint over the states that are not yet
// final: each is expanded until no state's atom set grows. New states
// created during a pass are processed within the same pass.
func (e *Engine) stabilize() {
	for {
		changed := false
		for i := e.stable; i < len(e.order); i++ {
			s := e.order[i]
			if s.atoms.AddAll(e.deriveOver(s.atoms, nil)) > 0 {
				changed = true
			}
		}
		if !changed {
			e.stable = len(e.order)
			return
		}
	}
}

// deriveOver performs one round of derivation over the given atom set
// (the atoms of a node) and returns the new atoms over the node's own
// domain, in a buffer the next call reuses. A term belongs to the node's
// domain iff it is not a placeholder; when keep is non-nil it further
// restricts which term ids count as "own" (used by the top-level
// completion where the node's domain is dom(I)).
//
// Derivations with existential witnesses spawn canonical child nodes whose
// closures are looked up (and seeded on demand); atoms of a child closure
// that mention only own terms are lifted back.
func (e *Engine) deriveOver(atoms *logic.Instance, keep map[int32]bool) []*logic.Atom {
	e.adds = e.adds[:0]
	for i := range e.rules {
		r := &e.rules[i]
		e.mm.MatchAllExt(r.body, atoms, -1, func(m *logic.Match) bool {
			// Overwrite the frontier entries of the value table in place.
			m.AppendImageTerms(r.terms[:0], r.frIDs)
			m.AppendImageIDs(r.ids[:0], r.frIDs)
			e.heads = e.heads[:0]
			for _, h := range r.heads {
				args := make([]logic.Term, len(h.src))
				ids := make([]int32, len(h.src))
				for j, s := range h.src {
					args[j], ids[j] = r.terms[s], r.ids[s]
				}
				e.heads = append(e.heads, logic.NewAtomFromIDs(h.pred, args, h.pid, ids))
			}
			for j, ha := range e.heads {
				if !r.heads[j].ex && allKept(ha, keep) {
					if !atoms.Has(ha) {
						e.adds = append(e.adds, ha)
					}
					continue
				}
				e.lift(atoms, ha, keep)
			}
			return true
		})
	}
	return e.adds
}

// lift looks up the child node of the head atom ha: its known atoms are
// the node's atoms over dom(ha) and the trigger's head atoms over dom(ha).
// The atoms of the child closure that mention only own terms and are new
// to the node are appended to adds.
func (e *Engine) lift(atoms *logic.Instance, ha *logic.Atom, keep map[int32]bool) {
	c := &e.canon
	c.begin(ha)
	e.addOver(c, atoms)
	for _, h := range e.heads {
		c.add(h)
	}
	c.finish()
	child := e.getState(e.reg.intern(c))
	e.own = e.own[:0]
	for _, id := range c.ren.ids {
		e.own = append(e.own, !slices.Contains(e.phIDs, id) && (keep == nil || keep[id]))
	}
next:
	for _, ca := range child.atoms.Atoms() {
		// A closure atom may carry a head constant of Σ, which has no
		// canonical integer and so no inverse: it is not lifted.
		for _, t := range ca.Args {
			if f, ok := t.(logic.Fresh); !ok || f < 1 || int(f) > len(e.own) || !e.own[f-1] {
				continue next
			}
		}
		if orig, _ := c.ren.InvertAtom(ca); !atoms.Has(orig) {
			e.adds = append(e.adds, orig)
		}
	}
}

// allKept reports whether every term of the atom is kept (nil keeps all).
func allKept(a *logic.Atom, keep map[int32]bool) bool {
	if keep == nil {
		return true
	}
	for i := range a.Args {
		if !keep[a.ArgID(i)] {
			return false
		}
	}
	return true
}

// addOver adds to the canonicalization every atom of the instance over
// dom(guard). Such an atom has its first argument in dom(guard), so it is
// read from the (position 0, t) postings of each domain term t, predicate
// by predicate; atoms of nullary predicates are read whole. The order of
// the additions is irrelevant: the renaming is fixed by the guard, and
// finish sorts.
func (e *Engine) addOver(c *canon, in *logic.Instance) {
	for _, p := range e.preds {
		if p.pred.Arity == 0 {
			for a := range in.AtomsOf(p.pred) {
				c.add(a)
			}
			continue
		}
		for _, id := range c.ren.ids {
			for a := range in.AtomsAt(p.pid, 0, id) {
				c.add(a)
			}
		}
	}
}

// typeOf returns the registered canonical type of the atom a of the
// instance: a's guard pattern with every atom of the instance over dom(a).
func (e *Engine) typeOf(in *logic.Instance, a *logic.Atom) *Type {
	c := &e.canon
	c.begin(a)
	e.addOver(c, in)
	c.finish()
	return e.reg.intern(c)
}

// Complete returns complete(I, Σ): every atom of chase(I, Σ) whose terms
// all occur in dom(I). It works for arbitrary guarded Σ, terminating even
// when the chase itself is infinite.
func Complete(in *logic.Instance, sigma *tgds.Set) (*logic.Instance, error) {
	e, err := NewEngine(sigma)
	if err != nil {
		return nil, err
	}
	return e.Complete(in), nil
}

// Complete is the memoizing variant of the package-level Complete.
func (e *Engine) Complete(in *logic.Instance) *logic.Instance {
	keep := make(map[int32]bool)
	for _, a := range in.Atoms() {
		e.notePred(a.Pred, a.PredID())
		for i := range a.Args {
			keep[a.ArgID(i)] = true
		}
	}
	c := in.Clone()
	for {
		grew := c.AddAll(e.deriveOver(c, keep)) > 0
		// Resolve all pending child closures before judging progress.
		e.stabilize()
		if !grew {
			// One more derivation pass now that children stabilized: the
			// lifts may have become available only after stabilization.
			if c.AddAll(e.deriveOver(c, keep)) == 0 {
				return c
			}
		}
	}
}
