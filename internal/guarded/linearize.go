package guarded

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/logic"
	"repro/internal/simplify"
	"repro/internal/tgds"
)

// TypeInfo associates a canonical Σ-type with its generated type predicate
// [τ]. The predicate keeps the full arity of the underlying guard
// predicate (see DESIGN.md, deviation 2: the full-arity convention).
type TypeInfo struct {
	Type *Type
	Pred logic.Predicate
}

// Linearizer converts guarded databases and TGD sets into linear ones per
// the paper's Appendix ("Linearization"). The paper's lin(Σ) ranges over
// all Σ-types; the linearizer generates only the types reachable from
// lin(D), which is sound and complete for chase equivalence and for the
// ChTrm(G) decider (DESIGN.md, "Reachable linearization").
type Linearizer struct {
	sigma    *tgds.Set
	arity    int       // ar(Σ)
	guardIDs [][]int32 // per TGD of Σ: its guard's argument ids
	engine   *Engine
	infos    []*TypeInfo // by type id in the engine's registry; nil until named
	byPred   map[logic.Predicate]*TypeInfo
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
		byPred: make(map[logic.Predicate]*TypeInfo),
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

// intern registers (or retrieves) the type predicate for a canonical type.
func (l *Linearizer) intern(t *Type) *TypeInfo {
	l.infos = growTo(l.infos, t.id)
	if info := l.infos[t.id]; info != nil {
		return info
	}
	l.names++
	name := "[τ" + strconv.Itoa(l.names) + ":" + t.Guard.Pred.Name + "]"
	info := &TypeInfo{
		Type: t,
		Pred: logic.Predicate{Name: name, Arity: t.Guard.Pred.Arity},
	}
	l.infos[t.id] = info
	l.byPred[info.Pred] = info
	return info
}

// Info returns the type information registered for a generated predicate.
func (l *Linearizer) Info(p logic.Predicate) (*TypeInfo, bool) {
	info, ok := l.byPred[p]
	return info, ok
}

// TypeCount returns the number of distinct Σ-types materialized so far
// (after Linearize: the types reachable from lin(D)). The paper's bound
// on the full type space is |sch(Σ)|·ar(Σ)^ar(Σ)·2^(|sch(Σ)|·ar(Σ)^ar(Σ));
// the reachable fragment is usually dramatically smaller, which is what
// makes the ChTrm(G) decider practical.
func (l *Linearizer) TypeCount() int { return l.names }

// Database computes lin(D): every fact R(t̄) becomes [τ](t̄) where τ is
// the canonical form of R(t̄)'s type in chase(D, Σ).
func (l *Linearizer) Database(db *logic.Instance) (*logic.Instance, error) {
	if !db.IsDatabase() {
		return nil, fmt.Errorf("guarded: linearization input must be a database")
	}
	completed := l.engine.Complete(db)
	out := logic.NewInstance()
	for _, a := range db.Atoms() {
		info := l.intern(l.engine.typeOf(completed, a))
		out.Add(logic.NewAtom(info.Pred, a.Args...))
	}
	return out, nil
}

// Linearize computes lin(D) and the fragment of lin(Σ) reachable from the
// types of lin(D).
func (l *Linearizer) Linearize(db *logic.Instance) (*logic.Instance, *tgds.Set, error) {
	linDB, err := l.Database(db)
	if err != nil {
		return nil, nil, err
	}
	out := tgds.NewSet()
	var queue []*Type
	var visited []bool // by type id
	enqueue := func(t *Type) {
		if visited = growTo(visited, t.id); !visited[t.id] {
			visited[t.id] = true
			queue = append(queue, t)
		}
	}
	for _, a := range linDB.Atoms() {
		info, ok := l.byPred[a.Pred]
		if !ok {
			return nil, nil, fmt.Errorf("guarded: unregistered predicate %v", a.Pred)
		}
		enqueue(info.Type)
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		rules, children, err := l.linearizeType(t)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range rules {
			out.Add(r)
		}
		for _, c := range children {
			enqueue(c)
		}
	}
	return linDB, out, nil
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

	body := logic.NewAtom(l.intern(t).Pred, sig.Guard().Args...)
	heads := make([]*logic.Atom, len(sig.Head))
	var children []*Type
	for i, alpha := range alphas {
		childType := l.engine.typeOf(completed, alpha)
		heads[i] = logic.NewAtom(l.intern(childType).Pred, sig.Head[i].Args...)
		children = append(children, childType)
	}
	rule, err := tgds.New([]*logic.Atom{body}, heads)
	if err != nil {
		return nil, nil, fmt.Errorf("guarded: linearized TGD invalid: %v", err)
	}
	return rule, children, nil
}

// GSimple computes gsimple(D) = simple(lin(D)) and gsimple(Σ) =
// simple(lin(Σ)) (reachable fragment), the combination used by the
// ChTrm(G) characterization of Theorem 8.3.
func GSimple(db *logic.Instance, sigma *tgds.Set) (*logic.Instance, *tgds.Set, error) {
	l, err := NewLinearizer(sigma)
	if err != nil {
		return nil, nil, err
	}
	linDB, linSigma, err := l.Linearize(db)
	if err != nil {
		return nil, nil, err
	}
	gsDB := simplify.Database(linDB)
	gsSigma, err := simplify.Set(linSigma)
	if err != nil {
		return nil, nil, err
	}
	return gsDB, gsSigma, nil
}
