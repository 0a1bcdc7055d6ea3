package logic

// This file implements precompiled body programs: the instance-independent
// part of the matcher's per-seed compilation — join order, argument slot
// codes, and the slot table — frozen into an immutable value that can be
// compiled once per (body, seed) and reused across rounds, runs, and
// concurrent jobs. The semi-naive join order for a fixed seed position
// depends only on the body (orderBody consults the instance only when no
// seed is given), so a BodyProgram enumerates exactly the homomorphisms,
// in exactly the order, that a fresh compile of the same (body, seed)
// would. The cross-request compilation cache (internal/compile) holds one
// program per (TGD, seed position).

// BodyProgram is a conjunctive body compiled for a fixed semi-naive seed
// position. It is immutable after CompileBodySeed and safe to share across
// any number of Matchers concurrently: running matchers read the program
// and keep their bindings in their own slot arrays.
type BodyProgram struct {
	compiled       // join-ordered body (seed first) and its slot codes
	perm     []int // ordered position -> original body index
	seed     int   // original index of the seed atom
	seedPid  int32 // the seed atom's predicate id (delta-skip probe)
}

// CompileBodySeed compiles the body for the given seed position. It
// returns nil when the body is empty or seed is out of range: such a
// body has no seed atom to land in the delta.
func CompileBodySeed(body []*Atom, seed int) *BodyProgram {
	if len(body) == 0 || seed < 0 || seed >= len(body) {
		return nil
	}
	// The scratch matcher is private to this call, so the program takes
	// over its compiled buffers instead of copying them.
	var m matcher
	m.compile(body, m.anyAgeCons(len(body)), seed)
	return &BodyProgram{
		compiled: m.compiled,
		perm:     m.ordPerm,
		seed:     seed,
		seedPid:  body[seed].pid,
	}
}

// install points the matcher at the program's read-only compiled body and
// materializes this round's delta constraints: atoms before the seed (in
// original body order) must predate deltaStart, the seed's image must be
// at or after it, later atoms are unconstrained — the same windows
// seedConstraints builds before a fresh compile permutes them.
func (m *matcher) install(prog *BodyProgram, deltaStart int) {
	if !m.borrowed {
		m.own, m.borrowed = m.compiled, true
	}
	m.compiled = prog.compiled
	n := len(prog.body)
	if cap(m.constraints) < n {
		m.constraints = make([]deltaConstraint, n)
	} else {
		m.constraints = m.constraints[:n]
	}
	for k, orig := range prog.perm {
		switch {
		case orig < prog.seed:
			m.constraints[k] = deltaConstraint{mode: mustBeOld, bound: deltaStart}
		case orig == prog.seed:
			m.constraints[k] = deltaConstraint{mode: mustBeNew, bound: deltaStart}
		default:
			m.constraints[k] = deltaConstraint{}
		}
	}
	s := len(prog.slotVar)
	if cap(m.boundID) < s {
		m.boundID = make([]int32, s)
		m.boundTerm = make([]Term, s)
	} else {
		m.boundID = m.boundID[:s]
		m.boundTerm = m.boundTerm[:s]
	}
}

// MatchAllProgs is the program-driven form of MatchAllExt's semi-naive
// branch: progs holds one compiled program per seed position of the same
// body, and the enumeration — including the per-seed delta-skip probe —
// is identical, match for match and in order, to
// MatchAllExt(body, inst, deltaStart, yield) for deltaStart >= 0.
func (mm *Matcher) MatchAllProgs(progs []*BodyProgram, inst *Instance, deltaStart int, yield func(*Match) bool) {
	m := &mm.m
	m.view.m = m
	m.inst = inst
	m.stopped = false
	for _, prog := range progs {
		if prog == nil || !inst.HasDeltaFor(prog.seedPid, deltaStart) {
			continue
		}
		m.install(prog, deltaStart)
		if !m.run(yield) {
			return
		}
	}
}
