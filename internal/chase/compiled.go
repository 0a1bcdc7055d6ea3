package chase

// Compiled programs. Everything the engine derives from the TGD set alone
// — per-TGD head programs and per-(TGD, seed position) body programs — is
// instance-independent, so a fleet of runs sharing Σ can pay the analysis
// once. CompiledSet freezes those artifacts into an immutable value;
// Options.Compile lets a run fetch one from a cross-request cache
// (internal/compile) instead of recompiling. A run with a compiled set is
// byte-identical to a cold run: the head and body programs depend on Σ
// alone, so a cached set holds exactly the programs a cold compile builds
// (see logic.BodyProgram).

import (
	"repro/internal/logic"
	"repro/internal/tgds"
)

// CompiledSet holds the chase engine's per-TGD compiled artifacts for one
// TGD set. It is immutable after Compile and safe to share across
// concurrent runs and worker goroutines.
type CompiledSet struct {
	sigma  *tgds.Set
	keys   []string              // per-TGD canonical keys, for Matches
	heads  [][]headAtom          // per-TGD head programs, by TGD index
	bodies [][]logic.BodyProgram // per-TGD body programs, by seed position
}

// Compile builds the compiled artifacts for every TGD of the set: the head
// program (compileHead) and one body program per seed position.
func Compile(sigma *tgds.Set) *CompiledSet {
	cs := &CompiledSet{
		sigma: sigma,
		keys:  make([]string, len(sigma.TGDs)),
		heads: make([][]headAtom, len(sigma.TGDs)),
	}
	bodies := make([][]*logic.Atom, len(sigma.TGDs))
	for i, t := range sigma.TGDs {
		cs.keys[i] = t.Key()
		cs.heads[i] = compileHead(t)
		bodies[i] = t.Body
	}
	cs.bodies = logic.CompileBodies(bodies)
	return cs
}

// Matches reports whether the compiled artifacts are valid for sigma: the
// set it was compiled from, or one whose clauses are pairwise identical
// (same order, same renderings — hence same variable names). A
// fingerprint-equal but reordered or α-renamed set does NOT match: head
// programs address frontier positions and null keys by this set's clause
// indexes and variable order, so reusing them would silently corrupt the
// run. Run re-checks this and falls back to a cold compile on mismatch.
func (cs *CompiledSet) Matches(sigma *tgds.Set) bool {
	if cs == nil || sigma == nil {
		return false
	}
	if cs.sigma == sigma {
		return true
	}
	if len(cs.keys) != len(sigma.TGDs) {
		return false
	}
	for i, t := range sigma.TGDs {
		if cs.keys[i] != t.Key() {
			return false
		}
	}
	return true
}

// Compiler supplies compiled sets to chase runs; internal/compile.Cache is
// the standard implementation. CompiledChase must return a set for which
// cs.Matches(sigma) holds (Run verifies and degrades to a cold compile
// otherwise, counting a miss); hit reports whether the set was served from
// cache rather than compiled for this call. Implementations must be safe
// for concurrent use: a scheduler fleet calls them from many jobs at once.
type Compiler interface {
	CompiledChase(sigma *tgds.Set) (cs *CompiledSet, hit bool)
}
