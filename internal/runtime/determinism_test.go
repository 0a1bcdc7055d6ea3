package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/families"
	"repro/internal/logic"
)

// The parallel engine's determinism contract: with an Executor attached,
// a chase run must be byte-identical to the sequential engine — same
// CanonicalKey, same stats (trigger counts included), same derivation,
// same forest — for all three variants, on terminating workloads and on
// budget-truncated prefixes of non-terminating ones alike.
func TestParallelChaseDeterminism(t *testing.T) {
	rcfg := families.RandomConfig{
		Predicates: 3, MaxArity: 3, Rules: 4, MaxHeadAtoms: 2,
		ExistentialProb: 0.45, RepeatProb: 0.3, SideAtoms: 1,
	}
	type gen struct {
		name    string
		guarded bool // safe to track the guarded forest
		make    func(*rand.Rand) families.Workload
	}
	gens := []gen{
		{"SL", true, func(r *rand.Rand) families.Workload {
			s := families.RandomSimpleLinear(r, rcfg)
			return families.Workload{Sigma: s, Database: families.RandomDatabase(r, s, 4, 3)}
		}},
		{"L", true, func(r *rand.Rand) families.Workload {
			s := families.RandomLinear(r, rcfg)
			return families.Workload{Sigma: s, Database: families.RandomDatabase(r, s, 4, 3)}
		}},
		{"G", true, func(r *rand.Rand) families.Workload {
			s := families.RandomGuarded(r, rcfg)
			return families.Workload{Sigma: s, Database: families.RandomDatabase(r, s, 4, 3)}
		}},
	}
	variants := []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted}
	const trials = 12
	const budget = 600 // truncates the non-terminating workloads mid-run
	for _, g := range gens {
		rng := rand.New(rand.NewSource(229))
		for trial := 0; trial < trials; trial++ {
			w := g.make(rng)
			if w.Sigma.Len() == 0 || w.Database.Len() == 0 {
				continue
			}
			for _, v := range variants {
				for _, workers := range []int{2, 4} {
					name := fmt.Sprintf("%s/trial%d/%v/w%d", g.name, trial, v, workers)
					opts := chase.Options{
						Variant:          v,
						MaxAtoms:         budget,
						RecordDerivation: true,
						TrackForest:      g.guarded && allGuarded(w),
					}
					seq := chase.Run(w.Database, w.Sigma, opts)
					par := opts
					par.Executor = NewExecutor(workers)
					got := chase.Run(w.Database, w.Sigma, par)
					compareRuns(t, name, w, seq, got, v)
				}
			}
		}
	}
}

func allGuarded(w families.Workload) bool {
	for _, t := range w.Sigma.TGDs {
		if !t.IsGuarded() {
			return false
		}
	}
	return true
}

func compareRuns(t *testing.T, name string, w families.Workload, seq, par *chase.Result, v chase.Variant) {
	t.Helper()
	if seq.Terminated != par.Terminated {
		t.Fatalf("%s: terminated %v (sequential) vs %v (parallel)", name, seq.Terminated, par.Terminated)
	}
	if seq.Stats != par.Stats {
		t.Fatalf("%s: stats diverge:\nsequential %+v\nparallel   %+v", name, seq.Stats, par.Stats)
	}
	if sk, pk := seq.Instance.CanonicalKey(), par.Instance.CanonicalKey(); sk != pk {
		t.Fatalf("%s: CanonicalKey diverges (%d vs %d atoms)", name, seq.Instance.Len(), par.Instance.Len())
	}
	// Derivations must agree step by step (TGD, frontier, produced atoms)
	// and the parallel derivation must replay as a valid chase derivation.
	sd, pd := seq.Derivation, par.Derivation
	if len(sd.Steps) != len(pd.Steps) {
		t.Fatalf("%s: %d derivation steps (sequential) vs %d (parallel)", name, len(sd.Steps), len(pd.Steps))
	}
	for i := range sd.Steps {
		ss, ps := sd.Steps[i], pd.Steps[i]
		if ss.TGD != ps.TGD || ss.Frontier.String() != ps.Frontier.String() {
			t.Fatalf("%s: step %d diverges: %v vs %v", name, i, ss, ps)
		}
		if len(ss.Produced) != len(ps.Produced) {
			t.Fatalf("%s: step %d produced %d vs %d atoms", name, i, len(ss.Produced), len(ps.Produced))
		}
		for j := range ss.Produced {
			if ss.Produced[j].Key() != ps.Produced[j].Key() {
				t.Fatalf("%s: step %d atom %d: %v vs %v", name, i, j, ss.Produced[j], ps.Produced[j])
			}
		}
	}
	// Derivation.Validate replays with the paper's semi-oblivious
	// (frontier-keyed) null naming and fixpoint condition: the oblivious
	// variant names nulls by the full homomorphism, and a terminated
	// restricted chase satisfies a weaker (extension-based) fixpoint, so
	// replay applies to the other two variants and the final no-active-
	// trigger check to the semi-oblivious chase alone.
	if v != chase.Oblivious {
		if err := pd.Validate(w.Sigma, par.Instance, par.Terminated && v == chase.SemiOblivious); err != nil {
			t.Fatalf("%s: parallel derivation invalid: %v", name, err)
		}
	}
	// Forests must agree as child-key -> parent-key relations.
	if (seq.Forest == nil) != (par.Forest == nil) {
		t.Fatalf("%s: forest presence diverges", name)
	}
	if seq.Forest != nil {
		sf, pf := forestEdges(seq.Instance, seq.Forest), forestEdges(par.Instance, par.Forest)
		if len(sf) != len(pf) {
			t.Fatalf("%s: forest has %d edges (sequential) vs %d (parallel)", name, len(sf), len(pf))
		}
		for child, parent := range sf {
			if pf[child] != parent {
				t.Fatalf("%s: forest parent of %q: %q vs %q", name, child, parent, pf[child])
			}
		}
	}
}

func forestEdges(inst *logic.Instance, f *chase.Forest) map[string]string {
	edges := make(map[string]string)
	for _, a := range inst.Atoms() {
		if p := f.Parent(a); p != nil {
			edges[a.Key()] = p.Key()
		}
	}
	return edges
}

// The engine must actually route semi-naive rounds through the executor —
// guard against a silent fallback to the sequential collector.
func TestParallelCollectorIsUsed(t *testing.T) {
	w := families.GLower(1, 1, 1)
	ce := &countingExec{inner: NewExecutor(4)}
	res := chase.Run(w.Database, w.Sigma, chase.Options{Executor: ce})
	if !res.Terminated {
		t.Fatal("unexpected budget hit")
	}
	// Every round — round 1 shards the full enumeration on each TGD's
	// join-start atom, later rounds shard the semi-naive delta.
	if want := res.Stats.Rounds; ce.maps != want {
		t.Fatalf("parallel collector invoked %d times over %d rounds, want %d",
			ce.maps, res.Stats.Rounds, want)
	}
}

type countingExec struct {
	inner *Executor
	maps  int
}

func (c *countingExec) Workers() int { return c.inner.Workers() }
func (c *countingExec) Map(n int, task func(i, w int)) {
	c.maps++
	c.inner.Map(n, task)
}

// An executor's width is untrusted input — a fleet Submit frame carries
// it — so the collector must size its worker slots by the tasks a round
// has, not by Workers(): at MaxInt32 slots the array would take over a
// terabyte, and the failed allocation kills the process. A run at that
// width must complete and equal the sequential one.
func TestParallelChaseUnboundedWidth(t *testing.T) {
	workloads := map[string]families.Workload{
		"GLower":     families.GLower(1, 1, 1),
		"SLLower":    families.SLLower(2, 2, 2),
		"University": families.University(5, 1),
	}
	for name, w := range workloads {
		for _, v := range []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted} {
			opts := chase.Options{Variant: v, MaxAtoms: 2000, RecordDerivation: true}
			seq := chase.Run(w.Database, w.Sigma, opts)
			opts.Executor = NewExecutor(math.MaxInt32)
			par := chase.Run(w.Database, w.Sigma, opts)
			compareRuns(t, fmt.Sprintf("%s/%v", name, v), w, seq, par, v)
		}
	}
}

// The ablation path (NoSemiNaive) bypasses the parallel collector by
// design; an executor attached to such runs must still yield identical
// results.
func TestParallelChaseNoSemiNaiveFallback(t *testing.T) {
	w := families.SLLower(2, 2, 2)
	opts := chase.Options{NoSemiNaive: true}
	seq := chase.Run(w.Database, w.Sigma, opts)
	par := opts
	par.Executor = NewExecutor(4)
	got := chase.Run(w.Database, w.Sigma, par)
	if seq.Instance.CanonicalKey() != got.Instance.CanonicalKey() || seq.Stats != got.Stats {
		t.Fatal("NoSemiNaive runs diverge with an executor attached")
	}
}
