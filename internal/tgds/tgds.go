// Package tgds models tuple-generating dependencies (TGDs) and finite sets
// thereof, together with the syntactic classes studied in the paper:
// guarded TGDs (G), linear TGDs (L), and simple linear TGDs (SL), with
// SL ⊊ L ⊊ G. It also computes the paper's size metrics for a set Σ:
// sch(Σ), ar(Σ), atoms(Σ) and ‖Σ‖ = |atoms(Σ)|·|sch(Σ)|·ar(Σ).
package tgds

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/logic"
)

// TGD is a tuple-generating dependency body(x̄,ȳ) → ∃z̄ head(x̄,z̄). Both
// body and head are non-empty conjunctions of atoms. The frontier is the
// set of variables shared between body and head; head variables outside
// the frontier are existentially quantified.
type TGD struct {
	// ID is the index of the TGD within its Set (or -1 when standalone).
	ID   int
	Body []*logic.Atom
	Head []*logic.Atom

	frontier    []logic.Variable
	frontierIDs []int32 // interned ids, aligned with frontier
	existential []logic.Variable
	sortedIDs   []int32 // interned ids of the distinct body variables, sorted by name
	guardIndex  int
	key         string
}

// New constructs and validates a TGD. It returns an error if body or head
// is empty, or if an atom argument is neither a variable nor a constant
// (TGDs over nulls are not meaningful).
func New(body, head []*logic.Atom) (*TGD, error) {
	if len(body) == 0 {
		return nil, errors.New("tgds: empty body")
	}
	if len(head) == 0 {
		return nil, errors.New("tgds: empty head")
	}
	for _, atoms := range [][]*logic.Atom{body, head} {
		for _, a := range atoms {
			for _, t := range a.Args {
				switch t.(type) {
				case logic.Variable, logic.Constant, logic.Fresh:
				default:
					return nil, fmt.Errorf("tgds: illegal term %v in %v", t, a)
				}
			}
		}
	}
	t := &TGD{ID: -1, Body: body, Head: head, guardIndex: -1}
	inBody := variableSet(body)
	for _, v := range variablesInOrder(head) {
		if inBody[v] {
			t.frontier = append(t.frontier, v)
		} else {
			t.existential = append(t.existential, v)
		}
	}
	sort.Slice(t.frontier, func(i, j int) bool { return t.frontier[i] < t.frontier[j] })
	t.frontierIDs = internVars(t.frontier)
	bodyVars := variablesInOrder(body)
	sorted := append([]logic.Variable{}, bodyVars...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	t.sortedIDs = internVars(sorted)
	// Guard: the leftmost body atom containing every body variable.
	for i, a := range body {
		if containsAll(a, bodyVars) {
			t.guardIndex = i
			break
		}
	}
	t.key = renderTGD(body, head)
	return t, nil
}

func internVars(vars []logic.Variable) []int32 {
	out := make([]int32, len(vars))
	for i, v := range vars {
		out[i] = logic.IDOf(v)
	}
	return out
}

// MustNew is New for statically-known TGDs; it panics on error.
func MustNew(body, head []*logic.Atom) *TGD {
	t, err := New(body, head)
	if err != nil {
		panic(err)
	}
	return t
}

// Frontier returns the frontier variables fr(σ), sorted. The returned
// slice is shared; callers must not modify it.
func (t *TGD) Frontier() []logic.Variable { return t.frontier }

// FrontierIDs returns the interned symbol ids of the frontier variables,
// aligned with Frontier(). The returned slice is shared; callers must not
// modify it.
func (t *TGD) FrontierIDs() []int32 { return t.frontierIDs }

// Existential returns the existentially quantified head variables, in
// order of first occurrence in the head.
func (t *TGD) Existential() []logic.Variable { return t.existential }

// SortedBodyVarIDs returns the interned symbol ids of the distinct body
// variables, sorted by variable name; the oblivious chase keys triggers
// and nulls by the images of exactly this sequence. The returned slice is
// shared; callers must not modify it.
func (t *TGD) SortedBodyVarIDs() []int32 { return t.sortedIDs }

// IsGuarded reports whether some body atom contains all body variables.
func (t *TGD) IsGuarded() bool { return t.guardIndex >= 0 }

// Guard returns the guard atom (the leftmost body atom containing all body
// variables) or nil when the TGD is not guarded.
func (t *TGD) Guard() *logic.Atom {
	if t.guardIndex < 0 {
		return nil
	}
	return t.Body[t.guardIndex]
}

// IsLinear reports whether the body consists of a single atom.
func (t *TGD) IsLinear() bool { return len(t.Body) == 1 }

// IsSimpleLinear reports whether the TGD is linear and no variable occurs
// more than once in its body atom.
func (t *TGD) IsSimpleLinear() bool {
	if !t.IsLinear() {
		return false
	}
	seen := make(map[logic.Variable]bool)
	for _, term := range t.Body[0].Args {
		if v, ok := term.(logic.Variable); ok {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
	}
	return true
}

// Key returns a canonical rendering of the TGD, used for deduplication.
func (t *TGD) Key() string { return t.key }

// String renders the TGD in rule syntax.
func (t *TGD) String() string { return t.key }

func renderTGD(body, head []*logic.Atom) string {
	parts := make([]string, len(body))
	for i, a := range body {
		parts[i] = a.String()
	}
	s := strings.Join(parts, ", ") + " -> "
	parts = make([]string, len(head))
	for i, a := range head {
		parts[i] = a.String()
	}
	return s + strings.Join(parts, ", ")
}

func variableSet(atoms []*logic.Atom) map[logic.Variable]bool {
	out := make(map[logic.Variable]bool)
	for _, a := range atoms {
		for _, t := range a.Args {
			if v, ok := t.(logic.Variable); ok {
				out[v] = true
			}
		}
	}
	return out
}

func variablesInOrder(atoms []*logic.Atom) []logic.Variable {
	var out []logic.Variable
	seen := make(map[logic.Variable]bool)
	for _, a := range atoms {
		for _, t := range a.Args {
			if v, ok := t.(logic.Variable); ok && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

func containsAll(a *logic.Atom, vars []logic.Variable) bool {
	have := make(map[logic.Variable]bool, len(a.Args))
	for _, t := range a.Args {
		if v, ok := t.(logic.Variable); ok {
			have[v] = true
		}
	}
	for _, v := range vars {
		if !have[v] {
			return false
		}
	}
	return true
}
