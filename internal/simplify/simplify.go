// Package simplify implements the simplification technique of Section 7 of
// the paper, which converts linear TGDs into simple linear TGDs while
// preserving chase finiteness and term depth (Proposition 7.3).
//
// For a tuple t̄, unique(t̄) keeps the first occurrence of each term and
// id(t̄) records the repetition pattern; the simplification of an atom
// R(t̄) is the atom R⟨id(t̄)⟩(unique(t̄)) over the pattern predicate
// R⟨id(t̄)⟩. A specialization of the body variables merges variables in all
// "collapse-compatible" ways; the simplification of a linear TGD is the
// set of simplifications induced by its specializations (Definition 7.2).
package simplify

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/logic"
	"repro/internal/tgds"
)

// IDPattern returns id(t̄): for each position, the 1-based index of the
// position of unique(t̄) at which the term appears. For example,
// id((x,y,x,z,y)) = (1,2,1,3,2).
func IDPattern(args []logic.Term) []int {
	pattern := make([]int, len(args))
	index := make(map[string]int)
	next := 1
	for i, t := range args {
		k := t.Key()
		if id, ok := index[k]; ok {
			pattern[i] = id
			continue
		}
		index[k] = next
		pattern[i] = next
		next++
	}
	return pattern
}

// Unique returns unique(t̄): the tuple with only the first occurrence of
// each term kept.
func Unique(args []logic.Term) []logic.Term {
	var out []logic.Term
	seen := make(map[string]bool)
	for _, t := range args {
		if k := t.Key(); !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// PatternPredicate returns the pattern predicate R⟨ℓ1.ℓ2...⟩ for the base
// predicate and pattern; its arity is the number of distinct pattern ids.
func PatternPredicate(base logic.Predicate, pattern []int) logic.Predicate {
	max := 0
	parts := make([]string, len(pattern))
	for i, l := range pattern {
		parts[i] = strconv.Itoa(l)
		if l > max {
			max = l
		}
	}
	name := base.Name + "#" + strings.Join(parts, ".")
	return logic.Predicate{Name: name, Arity: max}
}

// ParsePatternPredicate inverts PatternPredicate. It reports ok=false when
// the predicate is not a pattern predicate.
func ParsePatternPredicate(p logic.Predicate) (base string, pattern []int, ok bool) {
	i := strings.LastIndex(p.Name, "#")
	if i < 0 {
		return "", nil, false
	}
	base = p.Name[:i]
	for _, part := range strings.Split(p.Name[i+1:], ".") {
		n, err := strconv.Atoi(part)
		if err != nil {
			return "", nil, false
		}
		pattern = append(pattern, n)
	}
	return base, pattern, true
}

// Atom returns simple(α) = R⟨id(t̄)⟩(unique(t̄)).
func Atom(a *logic.Atom) *logic.Atom {
	pattern := IDPattern(a.Args)
	return logic.NewAtom(PatternPredicate(a.Pred, pattern), Unique(a.Args)...)
}

// Database returns simple(D): the database with every fact simplified.
func Database(db *logic.Instance) *logic.Instance {
	out := logic.NewInstance()
	for _, a := range db.Atoms() {
		out.Add(Atom(a))
	}
	return out
}

// DatabasePredicates returns the predicates of simple(D), sorted as
// Instance.Predicates sorts them, without building simple(D).
func DatabasePredicates(db *logic.Instance) []logic.Predicate {
	var s PredicateSet
	for _, a := range db.Atoms() {
		s.Add(a.PredID(), a.Pred, a)
	}
	return s.Sorted()
}

// PredicateSet collects the predicates of a simplified database fact by
// fact, without building its atoms: a fact's repetition pattern id(t̄) is
// read from its argument ids (id equality is term equality), and each
// distinct (base, pattern) pair is named once. The zero value is empty.
type PredicateSet struct {
	seen  *logic.TupleInterner // (base id, pattern) tuples
	key   []int32
	preds []logic.Predicate
}

// Add records base⟨id(t̄)⟩ for the fact a = R(t̄), where id identifies base
// among the set's bases: R itself for simple(D), R(t̄)'s type predicate
// [τ] for gsimple(D) = simple(lin(D)).
func (s *PredicateSet) Add(id int32, base logic.Predicate, a *logic.Atom) {
	if s.seen == nil {
		s.seen = logic.NewTupleInterner()
	}
	s.key = append(s.key[:0], id)
	next := int32(1)
	for i := range a.Args {
		j := 0 // the first position of a's i-th term
		for a.ArgID(j) != a.ArgID(i) {
			j++
		}
		if j == i {
			s.key = append(s.key, next)
			next++
		} else {
			s.key = append(s.key, s.key[1+j])
		}
	}
	if _, fresh := s.seen.Intern(s.key); fresh {
		pattern := make([]int, len(a.Args))
		for i, l := range s.key[1:] {
			pattern[i] = int(l)
		}
		s.preds = append(s.preds, PatternPredicate(base, pattern))
	}
}

// Sorted returns the recorded predicates, sorted as Instance.Predicates
// sorts them. Distinct (base, pattern) pairs name distinct predicates, so
// the result holds no duplicates.
func (s *PredicateSet) Sorted() []logic.Predicate {
	return logic.SortPredicates(s.preds)
}

// Specializations enumerates all specializations of the variable tuple:
// functions f over the distinct variables (in order of first occurrence)
// with f(x1) = x1 and f(xi) ∈ {f(x1), ..., f(x(i-1)), xi}. Each result
// maps variable -> image variable.
func Specializations(vars []logic.Variable) []map[logic.Variable]logic.Variable {
	if len(vars) == 0 {
		return []map[logic.Variable]logic.Variable{{}}
	}
	results := []map[logic.Variable]logic.Variable{
		{vars[0]: vars[0]},
	}
	for _, v := range vars[1:] {
		var next []map[logic.Variable]logic.Variable
		for _, f := range results {
			// Candidate images: the distinct images so far, plus v itself.
			seen := map[logic.Variable]bool{}
			var candidates []logic.Variable
			for _, u := range vars {
				if img, ok := f[u]; ok && !seen[img] {
					seen[img] = true
					candidates = append(candidates, img)
				}
			}
			if !seen[v] {
				candidates = append(candidates, v)
			}
			for _, img := range candidates {
				g := make(map[logic.Variable]logic.Variable, len(f)+1)
				for k, w := range f {
					g[k] = w
				}
				g[v] = img
				next = append(next, g)
			}
		}
		results = next
	}
	return results
}

// TGD returns simple(σ): all simplifications of the linear TGD σ induced
// by specializations of its body variables. It errors when σ is not
// linear. Duplicate simplifications (arising from repeated body variables)
// are removed.
func TGD(t *tgds.TGD) ([]*tgds.TGD, error) {
	if !t.IsLinear() {
		return nil, fmt.Errorf("simplify: TGD %v is not linear", t)
	}
	body := t.Body[0]
	vars := body.Variables()
	var out []*tgds.TGD
	seen := make(map[string]bool)
	for _, f := range Specializations(vars) {
		subst := make(logic.Substitution, len(f))
		for v, img := range f {
			subst[v] = img
		}
		sBody := Atom(subst.ApplyAtom(body))
		sHead := make([]*logic.Atom, len(t.Head))
		for i, h := range t.Head {
			sHead[i] = Atom(subst.ApplyAtom(h))
		}
		st, err := tgds.New([]*logic.Atom{sBody}, sHead)
		if err != nil {
			return nil, fmt.Errorf("simplify: %v", err)
		}
		if !seen[st.Key()] {
			seen[st.Key()] = true
			out = append(out, st)
		}
	}
	return out, nil
}

// Set returns simple(Σ) for a set of linear TGDs.
func Set(sigma *tgds.Set) (*tgds.Set, error) {
	out := tgds.NewSet()
	for _, t := range sigma.TGDs {
		simplified, err := TGD(t)
		if err != nil {
			return nil, err
		}
		for _, st := range simplified {
			out.Add(st)
		}
	}
	return out, nil
}
