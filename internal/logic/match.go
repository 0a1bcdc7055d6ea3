package logic

// This file implements homomorphism search: finding all substitutions h
// from a conjunction of atoms (a TGD body, a query) into an instance such
// that h maps every body atom onto some instance atom. It is a
// backtracking join over a BodyProgram (program.go) with index-based
// candidate selection and optional semi-naive delta restriction. The join
// runs entirely on interned symbol ids: bindings live in flat slot
// arrays, and unification is int32 comparison — no Term.Key() string is
// built or compared. Matcher.Match is the one entry; MatchAll compiles
// the program of a one-shot join and runs it.

// MatchAll enumerates every homomorphism from body into inst and calls
// yield for each, until it returns false. Each yielded Substitution is
// freshly allocated and owned by the consumer. It compiles the one
// program the full join runs (see Matcher.Match). The body atoms may
// contain variables, constants, nulls and fresh terms; non-variable terms
// must match instance terms exactly.
func MatchAll(body []*Atom, inst *Instance, yield func(Substitution) bool) {
	var progs []BodyProgram
	if len(body) > 0 {
		progs = compileSeed(body, fewestRows(inst, len(body), func(i int) *Atom { return body[i] }))
	}
	var mm Matcher
	mm.Match(progs, inst, -1, func(m *Match) bool { return yield(m.Substitution()) })
}

// Matcher runs body programs, one at a time, keeping its binding buffers
// across calls. Bindings are flat arrays indexed by the program's slots;
// the trail records bound slots for backtracking. The zero value is ready
// to use; a Matcher is not safe for concurrent use and must not be
// re-entered from a yield callback.
type Matcher struct {
	inst *Instance
	prog *BodyProgram
	// Every image must lie in the age window mode, relative to bound; in
	// a semi-naive join each step has its own window.
	mode  ageWindow
	bound int

	boundID   []int32 // slot -> image id, -1 when unbound (ground ids are >= 0)
	boundTerm []Term  // slot -> image term
	trail     []int32 // bound slots, for undo

	view    Match
	stopped bool
}

// Match enumerates the homomorphisms from a body into inst and calls
// yield for each, until it returns false. progs holds the body's programs
// by seed position (CompileBodies). The yielded *Match, valid only during
// the call, exposes the images of the body variables as interned ids, so
// the chase builds its trigger keys without a Substitution.
//
// With deltaStart < 0 Match runs the full join, from the seed whose
// predicate holds the fewest rows; an empty body (no programs) has one
// homomorphism. Otherwise it runs the semi-naive join: each homomorphism
// that uses an atom with insertion sequence >= deltaStart, exactly once
// (seed by seed, body[seed] is the first body atom in the delta). A seed
// whose predicate gained no atoms is skipped, so a round's work follows
// the delta, not the instance.
func (m *Matcher) Match(progs []BodyProgram, inst *Instance, deltaStart int, yield func(*Match) bool) {
	if deltaStart < 0 {
		m.install(inst, fullJoin(inst, progs), anyAge, 0)
		m.run(yield)
		return
	}
	for i := range progs {
		if !inst.HasDeltaFor(progs[i].seed().pid, deltaStart) {
			continue
		}
		m.install(inst, &progs[i], semiNaive, deltaStart)
		if !m.run(yield) {
			return
		}
	}
}

// emptyBody is the program of the empty body, whose join yields the
// empty homomorphism once.
var emptyBody BodyProgram

// fullJoin returns the program a full join over inst runs.
func fullJoin(inst *Instance, progs []BodyProgram) *BodyProgram {
	if len(progs) == 0 {
		return &emptyBody
	}
	return &progs[fewestRows(inst, len(progs), func(i int) *Atom { return progs[i].seed() })]
}

// fewestRows returns the first i < n whose atom(i)'s predicate holds the
// fewest rows of inst.
func fewestRows(inst *Instance, n int, atom func(int) *Atom) int {
	start, best := 0, len(inst.rows(atom(0).pid))
	for i := 1; i < n; i++ {
		if c := len(inst.rows(atom(i).pid)); c < best {
			start, best = i, c
		}
	}
	return start
}

// ExtendOne reports whether the partial substitution base extends to a
// homomorphism from body into inst, returning one such extension (or nil).
// It is used by the restricted chase to test whether a trigger's head is
// already satisfied.
func ExtendOne(body []*Atom, inst *Instance, base Substitution) Substitution {
	pre := make([]*Atom, len(body))
	for i, a := range body {
		pre[i] = base.ApplyAtom(a)
	}
	var found Substitution
	MatchAll(pre, inst, func(s Substitution) bool {
		found = s
		return false
	})
	if found == nil {
		return nil
	}
	for v, t := range base {
		found[v] = t
	}
	return found
}

// ExistsBefore reports whether some homomorphism from a body into inst
// maps every body atom onto an atom with insertion sequence below bound
// and each variable vars[i] (given by interned id) onto the term with id
// ids[i]; progs is as for Match, and variables that do not occur in the
// body are ignored. Before any join it probes, for every body occurrence
// of a pre-bound variable, whether an atom below bound carries the image
// there; most searches for a trigger that involves a newer term end at
// that probe. The join then runs from the first atom with a pre-bound
// variable, or from the full join's start when there is none. A resumed
// chase uses it to tell whether a trigger was fired before its
// checkpoint.
func (m *Matcher) ExistsBefore(progs []BodyProgram, inst *Instance, bound int, vars, ids []int32) bool {
	if len(progs) == 0 {
		return true // the empty homomorphism maps no atom
	}
	var prog *BodyProgram
	for i := range progs {
		a := progs[i].seed() // body atom i
		p := inst.pred(a.pid)
		if p == nil || int(inst.list(p.rows)[0]) >= bound {
			return false
		}
		for pos, id := range a.ids {
			for k, v := range vars {
				if v != id {
					continue
				}
				if list := inst.posting(p.col+int32(pos), ids[k]); len(list) == 0 || int(list[0]) >= bound {
					return false
				}
				if prog == nil {
					prog = &progs[i]
				}
			}
		}
	}
	if prog == nil {
		prog = fullJoin(inst, progs)
	}
	m.install(inst, prog, mustBeOld, bound)
	for k, v := range vars {
		if s := prog.slot(v); s >= 0 {
			m.boundID[s] = ids[k]
		}
	}
	return !m.run(func(*Match) bool { return false })
}

// ageWindow restricts where a step's image may lie in insertion order.
type ageWindow uint8

const (
	anyAge    ageWindow = iota
	mustBeOld           // below the bound
	mustBeNew           // at or above the bound
	semiNaive           // the matcher's mode in a semi-naive join: each step's own window
)

// install readies the matcher to run the program over inst in the age
// window mode, every slot unbound.
func (m *Matcher) install(inst *Instance, prog *BodyProgram, mode ageWindow, bound int) {
	m.view.m = m
	m.inst, m.prog, m.mode, m.bound = inst, prog, mode, bound
	m.stopped = false
	s := len(prog.slotVar)
	if cap(m.boundID) < s {
		m.boundID = make([]int32, s)
		m.boundTerm = make([]Term, s)
	}
	m.boundID = m.boundID[:s]
	m.boundTerm = m.boundTerm[:s]
	for i := range m.boundID {
		m.boundID[i] = -1
	}
	m.trail = m.trail[:0]
}

// run enumerates matches; it returns false if the consumer stopped early.
func (m *Matcher) run(yield func(*Match) bool) bool {
	m.backtrack(0, yield)
	return !m.stopped
}

func (m *Matcher) backtrack(i int, yield func(*Match) bool) {
	if m.stopped {
		return
	}
	if i == len(m.prog.steps) {
		if !yield(&m.view) {
			m.stopped = true
		}
		return
	}
	for _, s := range m.candidates(i) {
		mark := len(m.trail)
		if m.unify(i, m.inst.order[s]) {
			m.backtrack(i+1, yield)
			m.undo(mark)
		}
		if m.stopped {
			return
		}
	}
}

// candidates returns the smallest available sequence list for the i-th
// body atom under the current bindings: if some argument is ground (a
// constant, null, fresh term, or an already-bound variable slot), its
// posting narrows the scan; otherwise all rows of the predicate are
// scanned. Lists ascend, so age windows slice them by binary search
// instead of filtering — this keeps semi-naive rounds linear in the delta.
func (m *Matcher) candidates(i int) []int32 {
	st := &m.prog.steps[i]
	p := m.inst.pred(st.atom.pid)
	if p == nil {
		return nil
	}
	mode := m.mode
	if mode == semiNaive {
		mode = st.semi
	}
	best := m.sliceByAge(m.inst.list(p.rows), mode)
	for pos, c := range st.code {
		if len(best) == 0 {
			break
		}
		id := c
		if c < 0 {
			id = m.boundID[-1-c]
			if id < 0 {
				continue // unbound variable
			}
		}
		list := m.sliceByAge(m.inst.posting(p.col+int32(pos), id), mode)
		if len(list) < len(best) {
			best = list
		}
	}
	return best
}

// sliceByAge restricts an ascending sequence list to the age window.
func (m *Matcher) sliceByAge(list []int32, mode ageWindow) []int32 {
	switch mode {
	case mustBeNew:
		return list[seqsBelow(list, m.bound):]
	case mustBeOld:
		return list[:seqsBelow(list, m.bound)]
	default:
		return list
	}
}

// seqsBelow returns how many sequences of the ascending list are below s.
func seqsBelow(list []int32, s int) int {
	lo, hi := 0, len(list)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if int(list[h]) < s {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// unify extends the current bindings so that the i-th body atom maps onto
// fact, comparing interned ids only. On failure it undoes its own bindings
// and reports false; on success the new bindings are on the trail.
func (m *Matcher) unify(i int, fact *Atom) bool {
	mark := len(m.trail)
	for pos, c := range m.prog.steps[i].code {
		fid := fact.ids[pos]
		if c >= 0 {
			if c != fid {
				m.undo(mark)
				return false
			}
			continue
		}
		s := -1 - c
		if b := m.boundID[s]; b >= 0 {
			if b != fid {
				m.undo(mark)
				return false
			}
			continue
		}
		m.boundID[s] = fid
		m.boundTerm[s] = fact.Args[pos]
		m.trail = append(m.trail, c)
	}
	return true
}

func (m *Matcher) undo(mark int) {
	for k := len(m.trail) - 1; k >= mark; k-- {
		m.boundID[-1-m.trail[k]] = -1
	}
	m.trail = m.trail[:mark]
}

// Match is the id-level view of one homomorphism, yielded by
// Matcher.Match. It is a window into the matcher's state: valid only
// until the yield callback returns.
type Match struct {
	m *Matcher
}

// Substitution materializes the homomorphism as a fresh Substitution.
func (v *Match) Substitution() Substitution {
	out := make(Substitution, len(v.m.prog.slotVar))
	for s, x := range v.m.prog.slotVar {
		out[x] = v.m.boundTerm[s]
	}
	return out
}

// AppendImageIDs appends the interned ids of the images of the given
// variables (themselves given by interned id) to dst and returns it. A
// variable that does not occur in the body contributes its own (negative)
// id, keeping keys built from the result well-defined.
func (v *Match) AppendImageIDs(dst []int32, varIDs []int32) []int32 {
	for _, id := range varIDs {
		if s := v.m.prog.slot(id); s >= 0 {
			dst = append(dst, v.m.boundID[s])
		} else {
			dst = append(dst, id)
		}
	}
	return dst
}

// AppendImageTerms appends the image terms of the given variables (by
// interned id) to dst and returns it. A variable that does not occur in
// the body contributes itself, mirroring Substitution.Apply on an unbound
// variable.
func (v *Match) AppendImageTerms(dst []Term, varIDs []int32) []Term {
	for _, id := range varIDs {
		if s := v.m.prog.slot(id); s >= 0 {
			dst = append(dst, v.m.boundTerm[s])
		} else {
			dst = append(dst, TermOfID(id))
		}
	}
	return dst
}
