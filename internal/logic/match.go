package logic

// This file implements homomorphism search: finding all substitutions h
// from a conjunction of atoms (a TGD body, a query) into an instance such
// that h maps every body atom onto some instance atom. It is a
// backtracking join with index-based candidate selection and optional
// semi-naive delta restriction. The join runs entirely on interned symbol
// ids: body atoms are compiled to per-argument codes (a ground id or a
// variable slot), bindings live in flat slot arrays, and unification is
// int32 comparison — no Term.Key() string is built or compared.

// MatchAll enumerates every homomorphism from body into inst and calls
// yield for each. Enumeration stops early when yield returns false. Each
// yielded Substitution is freshly allocated and owned by the consumer.
//
// If deltaStart >= 0, only homomorphisms that use at least one atom with
// insertion sequence >= deltaStart are produced, and each such
// homomorphism is produced exactly once (the standard semi-naive
// decomposition: the i-th body atom is the first to land in the delta).
// Pass deltaStart < 0 to enumerate against the full instance.
//
// The body atoms may contain variables, constants, nulls and fresh terms;
// non-variable terms must match instance terms exactly.
func MatchAll(body []*Atom, inst *Instance, deltaStart int, yield func(Substitution) bool) {
	MatchAllExt(body, inst, deltaStart, func(m *Match) bool {
		return yield(m.Substitution())
	})
}

// MatchAllExt is MatchAll with id-level access to each match: the yielded
// *Match exposes the images of the body variables as interned ids, which
// lets the chase build its integer trigger keys without materializing a
// Substitution for triggers that turn out to be duplicates. The *Match is
// only valid during the yield call.
func MatchAllExt(body []*Atom, inst *Instance, deltaStart int, yield func(*Match) bool) {
	var mm Matcher
	mm.MatchAllExt(body, inst, deltaStart, yield)
}

// Matcher amortizes the compiled-body buffers of MatchAllExt across calls.
// The zero value is ready to use; a Matcher is not safe for concurrent use
// and must not be re-entered from a yield callback.
type Matcher struct{ m matcher }

// MatchAllExt behaves like the package-level MatchAllExt, reusing the
// Matcher's buffers.
func (mm *Matcher) MatchAllExt(body []*Atom, inst *Instance, deltaStart int, yield func(*Match) bool) {
	m := &mm.m
	m.view.m = m
	m.inst = inst
	m.stopped = false
	if len(body) == 0 {
		m.slotVar = m.slotVar[:0]
		m.slotID = m.slotID[:0]
		yield(&m.view)
		return
	}
	if deltaStart < 0 {
		m.compile(body, m.anyAgeCons(len(body)), -1)
		m.run(yield)
		return
	}
	// Semi-naive: for each seed position, body[0..seed-1] must map to old
	// atoms, body[seed] to a delta atom, the rest anywhere. The join is
	// evaluated seed-first so every round's work is proportional to the
	// delta, not the instance. The matcher (and its compile buffers) is
	// reused across seeds.
	cons := m.anyAgeCons(len(body))
	for seed := range body {
		// The seed atom must land in the delta; if its predicate gained no
		// atoms this round there is nothing to enumerate.
		if !inst.HasDeltaFor(body[seed].pid, deltaStart) {
			continue
		}
		m.seedConstraints(cons, seed, deltaStart)
		m.compile(body, cons, seed)
		if !m.run(yield) {
			return
		}
	}
}

// seedConstraints fills cons for the semi-naive decomposition with the
// given seed: atoms before the seed must predate deltaStart, the seed's
// image must be at or after it, later atoms are free.
func (m *matcher) seedConstraints(cons []deltaConstraint, seed, deltaStart int) {
	for i := range cons {
		switch {
		case i < seed:
			cons[i] = deltaConstraint{mode: mustBeOld, bound: deltaStart}
		case i == seed:
			cons[i] = deltaConstraint{mode: mustBeNew, bound: deltaStart}
		default:
			cons[i] = deltaConstraint{}
		}
	}
}

// anyAgeCons returns the matcher's reusable constraint buffer, zeroed.
func (m *matcher) anyAgeCons(n int) []deltaConstraint {
	if cap(m.consIn) < n {
		m.consIn = make([]deltaConstraint, n)
	} else {
		m.consIn = m.consIn[:n]
		for i := range m.consIn {
			m.consIn[i] = deltaConstraint{}
		}
	}
	return m.consIn
}

// orderBody reorders a body for join evaluation into m.body: the start
// atom first (the delta seed, or the atom with the fewest candidates when
// start < 0), then greedily the atom sharing the most variables with those
// already placed, which avoids Cartesian intermediate results. Each atom
// keeps its delta constraint.
func (m *matcher) orderBody(body []*Atom, cons []deltaConstraint, start int) {
	n := len(body)
	m.body = m.body[:0]
	m.constraints = m.constraints[:0]
	m.ordPerm = m.ordPerm[:0]
	if n == 1 {
		m.body = append(m.body, body[0])
		m.constraints = append(m.constraints, cons[0])
		m.ordPerm = append(m.ordPerm, 0)
		return
	}
	if start < 0 {
		start = 0
		best := len(m.inst.rows(body[0].pid))
		for i := 1; i < n; i++ {
			if c := len(m.inst.rows(body[i].pid)); c < best {
				best = c
				start = i
			}
		}
	}
	if cap(m.ordUsed) < n {
		m.ordUsed = make([]bool, n)
	} else {
		m.ordUsed = m.ordUsed[:n]
		for i := range m.ordUsed {
			m.ordUsed[i] = false
		}
	}
	m.ordSeen = m.ordSeen[:0]
	place := func(i int) {
		m.ordUsed[i] = true
		m.body = append(m.body, body[i])
		m.constraints = append(m.constraints, cons[i])
		m.ordPerm = append(m.ordPerm, i)
		for _, id := range body[i].ids {
			if id < 0 && !containsID(m.ordSeen, id) {
				m.ordSeen = append(m.ordSeen, id)
			}
		}
	}
	place(start)
	for len(m.body) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if m.ordUsed[i] {
				continue
			}
			score := 0
			ids := body[i].ids
			for j, id := range ids {
				if id < 0 && containsID(m.ordSeen, id) && !containsID(ids[:j], id) {
					score++
				}
			}
			if score > bestScore {
				bestScore = score
				best = i
			}
		}
		place(best)
	}
}

func containsID(ids []int32, id int32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
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
	MatchAll(pre, inst, -1, func(s Substitution) bool {
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

// ExistsBefore reports whether some homomorphism from body into inst maps
// every body atom onto an atom with insertion sequence below bound and
// each variable vars[i] (given by interned id) onto the term with id
// ids[i]. Variables that do not occur in the body are ignored. Before
// any join it probes, for every body occurrence of a pre-bound variable,
// whether an atom below bound carries the image there; most searches for
// a trigger that involves a newer term end at that probe. The join then
// starts at the first atom with a pre-bound variable. A resumed chase
// uses it to tell whether a trigger was fired before its checkpoint.
func (mm *Matcher) ExistsBefore(body []*Atom, inst *Instance, bound int, vars, ids []int32) bool {
	m := &mm.m
	m.inst = inst
	m.stopped = false
	if len(body) == 0 {
		return true // the empty homomorphism maps no atom
	}
	cons := m.anyAgeCons(len(body))
	start := -1
	for i, a := range body {
		cons[i] = deltaConstraint{mode: mustBeOld, bound: bound}
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
				if start < 0 {
					start = i
				}
			}
		}
	}
	m.compile(body, cons, start)
	for i := range m.boundID {
		m.boundID[i] = -1
	}
	m.trail = m.trail[:0]
	for k, v := range vars {
		if s := m.slot(v); s >= 0 {
			m.boundID[s] = ids[k]
		}
	}
	m.backtrack(0, func(*Match) bool { return false })
	return m.stopped
}

type constraintMode int

const (
	anyAge constraintMode = iota
	mustBeOld
	mustBeNew
)

type deltaConstraint struct {
	mode  constraintMode
	bound int // mustBeOld: exclusive upper; mustBeNew: inclusive lower
}

// compiled is a body compiled for the join: the ordered body atoms and
// their codes, one int32 per argument — a ground term id (>= 0), or
// -1-slot for a variable's binding slot.
type compiled struct {
	body    []*Atom
	code    [][]int32  // per ordered atom
	slotVar []Variable // slot -> source variable
	slotID  []int32    // slot -> the variable's interned id
}

// matcher is a compiled body join. Bindings are flat arrays indexed by
// slot; the trail records bound slots for backtracking.
type matcher struct {
	inst *Instance
	compiled
	constraints []deltaConstraint
	codeArena   []int32 // backs code after a fresh compile

	boundID   []int32 // slot -> image id, -1 when unbound (ground ids are >= 0)
	boundTerm []Term  // slot -> image term
	trail     []int32 // bound slots, for undo

	ordUsed []bool            // orderBody scratch
	ordSeen []int32           // orderBody scratch: variable ids already placed
	ordPerm []int             // ordered position -> original body index
	consIn  []deltaConstraint // reusable input-constraint buffer

	// borrowed marks that compiled points into a shared read-only
	// BodyProgram; own keeps the matcher's buffers meanwhile, and the next
	// fresh compile takes them back instead of appending to the program.
	borrowed bool
	own      compiled

	view    Match
	stopped bool
}

// compile orders the body and translates it to slot codes, reusing the
// matcher's buffers so semi-naive seeds recompile without allocating.
func (m *matcher) compile(body []*Atom, cons []deltaConstraint, start int) {
	if m.borrowed {
		m.compiled, m.borrowed = m.own, false
	}
	m.orderBody(body, cons, start)
	m.slotVar = m.slotVar[:0]
	m.slotID = m.slotID[:0]
	total := 0
	for _, a := range m.body {
		total += len(a.ids)
	}
	if cap(m.codeArena) < total {
		m.codeArena = make([]int32, total)
	} else {
		m.codeArena = m.codeArena[:total]
	}
	m.code = m.code[:0]
	off := 0
	for _, a := range m.body {
		code := m.codeArena[off : off+len(a.ids)]
		off += len(a.ids)
		for i, id := range a.ids {
			if id >= 0 {
				code[i] = id
				continue
			}
			s := m.slot(id)
			if s < 0 {
				s = len(m.slotVar)
				m.slotVar = append(m.slotVar, a.Args[i].(Variable))
				m.slotID = append(m.slotID, id)
			}
			code[i] = int32(-1 - s)
		}
		m.code = append(m.code, code)
	}
	n := len(m.slotVar)
	if cap(m.boundID) < n {
		m.boundID = make([]int32, n)
		m.boundTerm = make([]Term, n)
	} else {
		m.boundID = m.boundID[:n]
		m.boundTerm = m.boundTerm[:n]
	}
}

// run enumerates matches; it returns false if the consumer stopped early.
func (m *matcher) run(yield func(*Match) bool) bool {
	for i := range m.boundID {
		m.boundID[i] = -1
	}
	m.trail = m.trail[:0]
	m.backtrack(0, yield)
	return !m.stopped
}

func (m *matcher) backtrack(i int, yield func(*Match) bool) {
	if m.stopped {
		return
	}
	if i == len(m.body) {
		if !yield(&m.view) {
			m.stopped = true
		}
		return
	}
	cons := m.constraints[i]
	for _, s := range m.candidates(i, cons) {
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
// scanned. Lists ascend, so age constraints slice them by binary search
// instead of filtering — this keeps semi-naive rounds linear in the delta.
func (m *matcher) candidates(i int, cons deltaConstraint) []int32 {
	p := m.inst.pred(m.body[i].pid)
	if p == nil {
		return nil
	}
	best := sliceByAge(m.inst.list(p.rows), cons)
	for pos, c := range m.code[i] {
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
		list := sliceByAge(m.inst.posting(p.col+int32(pos), id), cons)
		if len(list) < len(best) {
			best = list
		}
	}
	return best
}

// sliceByAge restricts an ascending sequence list to the constraint's age
// window.
func sliceByAge(list []int32, cons deltaConstraint) []int32 {
	switch cons.mode {
	case mustBeNew:
		return list[seqsBelow(list, cons.bound):]
	case mustBeOld:
		return list[:seqsBelow(list, cons.bound)]
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
func (m *matcher) unify(i int, fact *Atom) bool {
	mark := len(m.trail)
	for pos, c := range m.code[i] {
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

func (m *matcher) undo(mark int) {
	for k := len(m.trail) - 1; k >= mark; k-- {
		m.boundID[-1-m.trail[k]] = -1
	}
	m.trail = m.trail[:mark]
}

// Match is the id-level view of one homomorphism, yielded by MatchAllExt.
// It is a window into the matcher's state: valid only until the yield
// callback returns.
type Match struct {
	m *matcher
}

// Substitution materializes the homomorphism as a fresh Substitution.
func (v *Match) Substitution() Substitution {
	out := make(Substitution, len(v.m.slotVar))
	for s, x := range v.m.slotVar {
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
		if s := v.m.slot(id); s >= 0 {
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
		if s := v.m.slot(id); s >= 0 {
			dst = append(dst, v.m.boundTerm[s])
		} else {
			dst = append(dst, TermOfID(id))
		}
	}
	return dst
}

// slot returns the binding slot of the variable id, or -1. Bodies have a
// handful of variables, so a linear scan beats a map.
func (m *matcher) slot(varID int32) int {
	for s, id := range m.slotID {
		if id == varID {
			return s
		}
	}
	return -1
}
