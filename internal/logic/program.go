package logic

// This file compiles conjunctive bodies into the programs the join
// (match.go) runs. A BodyProgram is a body compiled from one seed atom:
// its atoms in join order, each argument as a slot code, and the body's
// variable slots. The order depends only on the body and the seed, so a
// program is compiled once and reused across rounds, runs, and concurrent
// jobs; the instance only picks which seed a full join starts from. The
// chase compiles every TGD body once per seed position
// (chase.CompiledSet, which the cross-request cache in internal/compile
// holds), and so does the guarded engine (guarded.NewEngine), whose
// programs its Linearizer shares; MatchAll compiles the one program a
// one-shot join runs.

// BodyProgram is a conjunctive body compiled for the join from one seed
// atom. It is immutable and safe to share across any number of Matchers
// concurrently: a running matcher reads the program and keeps its
// bindings in its own slot arrays.
type BodyProgram struct {
	steps   []step     // the body's atoms in join order, the seed first
	slotVar []Variable // slot -> variable, in the body's first-occurrence order
	slotID  []int32    // slot -> the variable's interned id
}

// step is one atom of a program's join order.
type step struct {
	atom *Atom
	code []int32 // per argument: a ground id (>= 0) or -1-slot
	// semi is the atom's age window in a semi-naive join from the seed:
	// atoms before the seed in body order must be old, the seed new, and
	// the atoms after it may be either.
	semi ageWindow
}

// seed returns the program's seed atom.
func (p *BodyProgram) seed() *Atom { return p.steps[0].atom }

// CompileBodies compiles each body once per seed position: the i-th entry
// holds the programs of bodies[i], the s-th of them joining from atom s.
// An empty body has no program. The programs of one call share their
// backing arrays.
func CompileBodies(bodies [][]*Atom) [][]BodyProgram {
	var c bodyCompiler
	for _, body := range bodies {
		c.size(body, len(body))
	}
	c.alloc()
	out := make([][]BodyProgram, len(bodies))
	for i, body := range bodies {
		out[i] = cut(&c.progs, len(body))
		c.slots(body)
		for seed := range body {
			c.compile(&out[i][seed], body, seed)
		}
	}
	return out
}

// compileSeed compiles the body's program from the given seed alone.
func compileSeed(body []*Atom, seed int) []BodyProgram {
	var c bodyCompiler
	c.size(body, 1)
	c.alloc()
	progs := cut(&c.progs, 1)
	c.slots(body)
	c.compile(&progs[0], body, seed)
	return progs
}

// bodyCompiler lays out programs in arrays sized up front for the whole
// call: size counts what the programs need, alloc makes the arrays, and
// slots and compile cut them.
type bodyCompiler struct {
	progs []BodyProgram
	steps []step
	ids   []int32 // argument codes and slot ids
	vars  []Variable

	nProgs, nSteps, nIDs, nVars int // sizes counted before alloc

	slotVar []Variable // the current body's slots
	slotID  []int32
	used    []bool  // compile scratch: body atoms placed
	seen    []int32 // compile scratch: variable ids placed
}

// size counts k programs of the body. A body has at most as many
// variables as arguments.
func (c *bodyCompiler) size(body []*Atom, k int) {
	args := 0
	for _, a := range body {
		args += len(a.ids)
	}
	c.nProgs += k
	c.nSteps += k * len(body)
	c.nIDs += k*args + args
	c.nVars += args
}

func (c *bodyCompiler) alloc() {
	c.progs = make([]BodyProgram, c.nProgs)
	c.steps = make([]step, c.nSteps)
	c.ids = make([]int32, c.nIDs)
	c.vars = make([]Variable, c.nVars)
}

// cut returns the next n elements of the arena and advances it past them.
func cut[T any](arena *[]T, n int) []T {
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

// slots numbers the body's variables in order of first occurrence; every
// program of the body shares the table. The arenas hold room for one slot
// per argument, so the appends fill their fronts in place, and cut then
// takes what they filled.
func (c *bodyCompiler) slots(body []*Atom) {
	ids, vars := c.ids[:0], c.vars[:0]
	for _, a := range body {
		for i, id := range a.ids {
			if id < 0 && !containsID(ids, id) {
				ids = append(ids, id)
				vars = append(vars, a.Args[i].(Variable))
			}
		}
	}
	c.slotID = cut(&c.ids, len(ids))
	c.slotVar = cut(&c.vars, len(vars))
}

// compile builds into p the body's program from the seed: the seed first,
// then greedily the atom sharing the most variables with those already
// placed, which avoids Cartesian intermediate results; each argument
// becomes a ground id or its variable's slot code.
func (c *bodyCompiler) compile(p *BodyProgram, body []*Atom, seed int) {
	n := len(body)
	p.steps = cut(&c.steps, n)
	p.slotVar, p.slotID = c.slotVar, c.slotID
	if cap(c.used) < n {
		c.used = make([]bool, n)
	}
	c.used = c.used[:n]
	clear(c.used)
	c.seen = c.seen[:0]
	for k := range p.steps {
		best := seed
		if k > 0 {
			bestScore := -1
			for i, a := range body {
				if c.used[i] {
					continue
				}
				score := 0
				for j, id := range a.ids {
					if id < 0 && containsID(c.seen, id) && !containsID(a.ids[:j], id) {
						score++
					}
				}
				if score > bestScore {
					best, bestScore = i, score
				}
			}
		}
		c.used[best] = true
		a := body[best]
		st := &p.steps[k]
		st.atom = a
		switch {
		case best < seed:
			st.semi = mustBeOld
		case best == seed:
			st.semi = mustBeNew
		default:
			st.semi = anyAge
		}
		st.code = cut(&c.ids, len(a.ids))
		for i, id := range a.ids {
			if id >= 0 {
				st.code[i] = id
				continue
			}
			st.code[i] = int32(-1 - p.slot(id))
			if !containsID(c.seen, id) {
				c.seen = append(c.seen, id)
			}
		}
	}
}

// slot returns the binding slot of the variable id, or -1. Bodies have a
// handful of variables, so a linear scan beats a map.
func (p *BodyProgram) slot(varID int32) int {
	for s, id := range p.slotID {
		if id == varID {
			return s
		}
	}
	return -1
}

func containsID(ids []int32, id int32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
