package guarded

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/logic"
	"repro/internal/simplify"
	"repro/internal/tgds"
)

// Linearizer converts guarded databases and TGD sets into linear ones per
// the paper's Appendix ("Linearization"). The paper's lin(Σ) ranges over
// all Σ-types; the linearizer generates only the types reachable from
// lin(D), which is sound and complete for chase equivalence and for the
// ChTrm(G) decider (DESIGN.md, "Reachable linearization"). The decider
// reads lin(D) only through the predicate set of gsimple(D), which
// LinearizePredicates computes without building lin(D).
type Linearizer struct {
	sigma    *tgds.Set
	arity    int       // ar(Σ)
	guardIDs [][]int32 // per TGD of Σ: its guard's argument ids
	engine   *Engine
	preds    []logic.Predicate // [τ] by type id in the engine's registry; zero until named
	names    int
}

// NewLinearizer validates guardedness and returns a linearizer for Σ.
func NewLinearizer(sigma *tgds.Set) (*Linearizer, error) {
	e, err := NewEngine(sigma)
	if err != nil {
		return nil, err
	}
	l := &Linearizer{
		sigma:  sigma,
		arity:  sigma.Arity(),
		engine: e,
	}
	for _, t := range sigma.TGDs {
		l.guardIDs = append(l.guardIDs, argIDs(t.Guard()))
	}
	return l, nil
}

// argIDs returns the interned ids of the atom's arguments.
func argIDs(a *logic.Atom) []int32 {
	ids := make([]int32, len(a.Args))
	for i := range ids {
		ids[i] = a.ArgID(i)
	}
	return ids
}

// intern names (or retrieves) the type predicate [τ] of a canonical type,
// numbering types in the order they are first named. The predicate keeps
// the full arity of the type's guard predicate (DESIGN.md, deviation 2:
// the full-arity convention).
func (l *Linearizer) intern(t *Type) logic.Predicate {
	l.preds = growTo(l.preds, t.id)
	if p := l.preds[t.id]; p.Name != "" {
		return p
	}
	l.names++
	p := logic.Predicate{Name: "[τ" + strconv.Itoa(l.names) + ":" + t.Guard.Pred.Name + "]", Arity: t.Guard.Pred.Arity}
	l.preds[t.id] = p
	return p
}

// TypeCount returns the number of distinct Σ-types materialized so far
// (after Linearize: the types reachable from lin(D)). The paper's bound
// on the full type space is |sch(Σ)|·ar(Σ)^ar(Σ)·2^(|sch(Σ)|·ar(Σ)^ar(Σ));
// the reachable fragment is usually dramatically smaller, which is what
// makes the ChTrm(G) decider practical.
func (l *Linearizer) TypeCount() int { return l.names }

// Linearize computes lin(D), where every fact R(t̄) becomes [τ](t̄) for the
// canonical type τ of R(t̄) in chase(D, Σ), and the fragment of lin(Σ)
// reachable from the types of lin(D).
func (l *Linearizer) Linearize(db *logic.Instance) (*logic.Instance, *tgds.Set, error) {
	linDB := logic.NewInstance()
	linSigma, err := l.linearize(db, func(a *logic.Atom, _ *Type, p logic.Predicate) {
		linDB.Add(logic.NewAtom(p, a.Args...))
	})
	if err != nil {
		return nil, nil, err
	}
	return linDB, linSigma, nil
}

// LinearizePredicates computes the predicate set of gsimple(D) =
// simple(lin(D)), sorted as Instance.Predicates sorts it, and the fragment
// of lin(Σ) that Linearize computes, without building lin(D): each fact's
// pattern predicate is read over its type predicate. Facts map
// injectively to the atoms of lin(D), in D's order, so the types are
// discovered, and named [τN], exactly as Linearize names them.
func (l *Linearizer) LinearizePredicates(db *logic.Instance) ([]logic.Predicate, *tgds.Set, error) {
	var preds simplify.PredicateSet
	linSigma, err := l.linearize(db, func(a *logic.Atom, t *Type, p logic.Predicate) {
		preds.Add(t.id, p, a)
	})
	if err != nil {
		return nil, nil, err
	}
	return preds.Sorted(), linSigma, nil
}

// linearize completes D and passes each fact, in D's order, to f with its
// canonical type and that type's predicate, named on first sight. It then
// returns the fragment of lin(Σ) reachable from the facts' types: each
// type is linearized once, breadth first from the facts' types in order.
func (l *Linearizer) linearize(db *logic.Instance, f func(a *logic.Atom, t *Type, p logic.Predicate)) (*tgds.Set, error) {
	if !db.IsDatabase() {
		return nil, fmt.Errorf("guarded: linearization input must be a database")
	}
	var queue []*Type
	var visited []bool // by type id
	enqueue := func(t *Type) {
		if visited = growTo(visited, t.id); !visited[t.id] {
			visited[t.id] = true
			queue = append(queue, t)
		}
	}
	completed := l.engine.Complete(db)
	for _, a := range db.Atoms() {
		t := l.engine.typeOf(completed, a)
		f(a, t, l.intern(t))
		enqueue(t)
	}
	out := tgds.NewSet()
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		rules, children, err := l.linearizeType(t)
		if err != nil {
			return nil, err
		}
		for _, r := range rules {
			out.Add(r)
		}
		for _, c := range children {
			enqueue(c)
		}
	}
	return out, nil
}

// linearizeType produces the linearizations of every σ ∈ Σ induced by the
// type τ and a homomorphism h from body(σ) to atoms(τ) mapping guard(σ)
// onto guard(τ), together with the head types they mention.
func (l *Linearizer) linearizeType(t *Type) ([]*tgds.TGD, []*Type, error) {
	tatoms := logic.NewDatabase(t.Atoms...)
	var rules []*tgds.TGD
	var children []*Type
	want := argIDs(t.Guard)
	var img []int32
	for k, sig := range l.sigma.TGDs {
		if sig.Guard().PredID() != t.Guard.PredID() {
			continue // h(guard(σ)) = guard(τ) is impossible
		}
		var homs []logic.Substitution
		// All homomorphisms are collected before any trigger is
		// linearized: linearizing completes instances through the same
		// engine, and so through the same matcher.
		l.engine.mm.MatchAllExt(sig.Body, tatoms, -1, func(m *logic.Match) bool {
			img = m.AppendImageIDs(img[:0], l.guardIDs[k])
			if slices.Equal(img, want) {
				homs = append(homs, m.Substitution())
			}
			return true
		})
		for _, h := range homs {
			rule, kids, err := l.linearizeTrigger(t, sig, h)
			if err != nil {
				return nil, nil, err
			}
			rules = append(rules, rule)
			children = append(children, kids...)
		}
	}
	return rules, children, nil
}

// linearizeTrigger linearizes σ under the homomorphism h, which it owns.
func (l *Linearizer) linearizeTrigger(t *Type, sig *tgds.TGD, h logic.Substitution) (*tgds.TGD, []*Type, error) {
	// h now maps head variables to canonical integers: frontier variables
	// to their images, the i-th existential variable to ar(Σ)+i.
	for i, z := range sig.Existential() {
		h[z] = logic.Fresh(l.arity + i + 1)
	}
	alphas := make([]*logic.Atom, len(sig.Head))
	for i, ha := range sig.Head {
		alphas[i] = h.ApplyAtom(ha)
	}
	// I = {α1..αm} ∪ atoms(τ), completed.
	inst := logic.NewDatabase(t.Atoms...)
	inst.AddAll(alphas)
	completed := l.engine.Complete(inst)

	body := logic.NewAtom(l.intern(t), sig.Guard().Args...)
	heads := make([]*logic.Atom, len(sig.Head))
	var children []*Type
	for i, alpha := range alphas {
		childType := l.engine.typeOf(completed, alpha)
		heads[i] = logic.NewAtom(l.intern(childType), sig.Head[i].Args...)
		children = append(children, childType)
	}
	rule, err := tgds.New([]*logic.Atom{body}, heads)
	if err != nil {
		return nil, nil, fmt.Errorf("guarded: linearized TGD invalid: %v", err)
	}
	return rule, children, nil
}
