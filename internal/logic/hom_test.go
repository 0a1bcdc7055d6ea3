package logic

import "testing"

// Instance-level homomorphisms, an oracle for tests: a homomorphism from
// instance A to instance B maps constants to themselves and nulls to
// arbitrary terms so that every atom of A lands in B. The chase result is
// a universal model: it maps homomorphically into every model of (D, Σ) —
// the property that makes it the right tool for certain-answer query
// answering.
//
// The search runs on interned ids: nulls are assigned (image term, image
// id) pairs keyed by their pointer (pointer identity equals term identity
// within a factory), and argument agreement is int32 comparison.

// instanceHom returns a homomorphism from the atoms of 'from' into 'to'
// (as a map from null keys to terms), or nil if none exists. Constants
// and fresh terms must map to themselves.
//
// The search is a backtracking join over the atoms of 'from', ordered by
// connectivity; it is intended for the moderate instance sizes of tests
// and experiments, not for bulk data.
func instanceHom(from, to *Instance) map[string]Term {
	atoms := append([]*Atom{}, from.Atoms()...)
	// Order atoms so consecutive atoms share nulls (bounds fan-out).
	ordered := orderByNullConnectivity(atoms)
	assign := make(map[*Null]nullBinding)
	if !homSearch(ordered, 0, to, assign) {
		return nil
	}
	out := make(map[string]Term, len(assign))
	for n, b := range assign {
		out[n.Key()] = b.term
	}
	return out
}

// hasInstanceHom reports whether 'from' maps homomorphically into 'to'.
func hasInstanceHom(from, to *Instance) bool {
	atoms := append([]*Atom{}, from.Atoms()...)
	ordered := orderByNullConnectivity(atoms)
	return homSearch(ordered, 0, to, make(map[*Null]nullBinding))
}

// nullBinding is the image of a null under the partial assignment; the id
// duplicates the term's interned id so agreement checks stay on ids.
type nullBinding struct {
	term Term
	id   int32
}

func orderByNullConnectivity(atoms []*Atom) []*Atom {
	n := len(atoms)
	used := make([]bool, n)
	bound := make(map[*Null]bool)
	out := make([]*Atom, 0, n)
	const minScore = -1 << 30
	for len(out) < n {
		best, bestScore := -1, minScore
		for i, a := range atoms {
			if used[i] {
				continue
			}
			score := 0
			nulls := 0
			for _, t := range a.Args {
				if nl, ok := t.(*Null); ok {
					nulls++
					if bound[nl] {
						score += 2
					}
				}
			}
			// Prefer atoms whose nulls are already bound, then atoms with
			// few unbound nulls (ground atoms are pure checks).
			score -= nulls
			if score > bestScore {
				bestScore = score
				best = i
			}
		}
		used[best] = true
		out = append(out, atoms[best])
		for _, t := range atoms[best].Args {
			if nl, ok := t.(*Null); ok {
				bound[nl] = true
			}
		}
	}
	return out
}

func homSearch(atoms []*Atom, i int, to *Instance, assign map[*Null]nullBinding) bool {
	if i == len(atoms) {
		return true
	}
	pattern := atoms[i]
	// Candidate targets: narrow by any ground or already-assigned position.
	p := to.pred(pattern.pid)
	if p == nil {
		return false
	}
	candidates := to.list(p.rows)
	for pos, t := range pattern.Args {
		if len(candidates) == 0 {
			return false
		}
		id, ok := imageID(t, pattern.ids[pos], assign)
		if !ok {
			continue
		}
		list := to.posting(p.col+int32(pos), id)
		if len(list) < len(candidates) {
			candidates = list
		}
	}
	for _, s := range candidates {
		cand := to.order[s]
		var newly []*Null
		ok := true
		for pos, t := range pattern.Args {
			target := cand.ids[pos]
			if id, bound := imageID(t, pattern.ids[pos], assign); bound {
				if id != target {
					ok = false
					break
				}
				continue
			}
			nl := t.(*Null)
			assign[nl] = nullBinding{term: cand.Args[pos], id: target}
			newly = append(newly, nl)
		}
		if ok && homSearch(atoms, i+1, to, assign) {
			return true
		}
		for _, nl := range newly {
			delete(assign, nl)
		}
	}
	return false
}

// imageID resolves the interned id of the image of a term under the
// partial assignment: non-null terms map to themselves; nulls map to their
// assignment when bound.
func imageID(t Term, id int32, assign map[*Null]nullBinding) (int32, bool) {
	nl, ok := t.(*Null)
	if !ok {
		return id, true
	}
	b, bound := assign[nl]
	return b.id, bound
}

func mkNull(f *NullFactory, key string) *Null {
	n, _ := f.Intern(key, 1)
	return n
}

func TestInstanceHomIdentity(t *testing.T) {
	in := NewDatabase(MakeAtom("r", Constant("a"), Constant("b")))
	if !hasInstanceHom(in, in) {
		t.Fatal("identity homomorphism must exist")
	}
}

func TestInstanceHomNullCollapse(t *testing.T) {
	f := NewNullFactory()
	n1, n2 := mkNull(f, "1"), mkNull(f, "2")
	from := NewDatabase(
		MakeAtom("r", Constant("a"), n1),
		MakeAtom("r", Constant("a"), n2),
	)
	to := NewDatabase(MakeAtom("r", Constant("a"), Constant("c")))
	h := instanceHom(from, to)
	if h == nil {
		t.Fatal("nulls must collapse onto c")
	}
	if h[n1.Key()] != Term(Constant("c")) || h[n2.Key()] != Term(Constant("c")) {
		t.Fatalf("assignment = %v", h)
	}
}

func TestInstanceHomConstantsFixed(t *testing.T) {
	from := NewDatabase(MakeAtom("r", Constant("a")))
	to := NewDatabase(MakeAtom("r", Constant("b")))
	if hasInstanceHom(from, to) {
		t.Fatal("constants must map to themselves")
	}
}

func TestInstanceHomJoinConstraint(t *testing.T) {
	f := NewNullFactory()
	n := mkNull(f, "1")
	// n must be simultaneously a target of r and a source of s.
	from := NewDatabase(
		MakeAtom("r", Constant("a"), n),
		MakeAtom("s", n, Constant("b")),
	)
	good := NewDatabase(
		MakeAtom("r", Constant("a"), Constant("m")),
		MakeAtom("s", Constant("m"), Constant("b")),
	)
	bad := NewDatabase(
		MakeAtom("r", Constant("a"), Constant("m")),
		MakeAtom("s", Constant("k"), Constant("b")),
	)
	if !hasInstanceHom(from, good) {
		t.Fatal("join-consistent mapping must be found")
	}
	if hasInstanceHom(from, bad) {
		t.Fatal("join-inconsistent target must be rejected")
	}
}

func TestInstanceHomBacktracking(t *testing.T) {
	f := NewNullFactory()
	n := mkNull(f, "1")
	from := NewDatabase(
		MakeAtom("r", n),
		MakeAtom("s", n),
	)
	// r offers two candidates; only the second also satisfies s.
	to := NewDatabase(
		MakeAtom("r", Constant("x")),
		MakeAtom("r", Constant("y")),
		MakeAtom("s", Constant("y")),
	)
	h := instanceHom(from, to)
	if h == nil {
		t.Fatal("backtracking must find the consistent candidate")
	}
	if h[n.Key()] != Term(Constant("y")) {
		t.Fatalf("assignment = %v", h)
	}
}
