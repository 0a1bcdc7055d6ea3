package compile

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/runtime"
)

// The cache's core contract: a cached run is byte-identical to a cold
// run. For random (D, Σ) pools and all three chase variants, cold-cache,
// warm-cache, and concurrent-shared-cache runs must produce the same
// CanonicalKey, Stats (the cache-interaction counters excepted — they are
// what distinguishes a hit run from a miss run), forest, and derivation
// output, on terminating workloads and budget-truncated prefixes alike.
func TestCacheEquivalenceRandomPools(t *testing.T) {
	rcfg := families.RandomConfig{
		Predicates: 3, MaxArity: 3, Rules: 4, MaxHeadAtoms: 2,
		ExistentialProb: 0.45, RepeatProb: 0.3, SideAtoms: 1,
	}
	type gen struct {
		name string
		make func(*rand.Rand) families.Workload
	}
	gens := []gen{
		{"SL", func(r *rand.Rand) families.Workload {
			s := families.RandomSimpleLinear(r, rcfg)
			return families.Workload{Sigma: s, Database: families.RandomDatabase(r, s, 4, 3)}
		}},
		{"L", func(r *rand.Rand) families.Workload {
			s := families.RandomLinear(r, rcfg)
			return families.Workload{Sigma: s, Database: families.RandomDatabase(r, s, 4, 3)}
		}},
		{"G", func(r *rand.Rand) families.Workload {
			s := families.RandomGuarded(r, rcfg)
			return families.Workload{Sigma: s, Database: families.RandomDatabase(r, s, 4, 3)}
		}},
	}
	variants := []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted}
	const trials = 8
	const budget = 600
	for _, g := range gens {
		rng := rand.New(rand.NewSource(311))
		for trial := 0; trial < trials; trial++ {
			w := g.make(rng)
			if w.Sigma.Len() == 0 || w.Database.Len() == 0 {
				continue
			}
			for _, v := range variants {
				name := fmt.Sprintf("%s/trial%d/%v", g.name, trial, v)
				opts := chase.Options{
					Variant:          v,
					MaxAtoms:         budget,
					RecordDerivation: true,
					TrackForest:      allGuarded(w),
				}
				cold := chase.Run(w.Database, w.Sigma, opts)

				// Warm: the first cached run misses and populates, the
				// second hits; both must equal the cold run.
				cache := NewCache(8)
				cachedOpts := opts
				cachedOpts.Compile = cache
				miss := chase.Run(w.Database, w.Sigma, cachedOpts)
				if miss.Stats.CompileMisses != 1 {
					t.Fatalf("%s: first cached run: misses=%d", name, miss.Stats.CompileMisses)
				}
				warm := chase.Run(w.Database, w.Sigma, cachedOpts)
				if warm.Stats.CompileHits != 1 {
					t.Fatalf("%s: second cached run: hits=%d", name, warm.Stats.CompileHits)
				}
				compareRuns(t, name+"/miss", w, cold, miss, v)
				compareRuns(t, name+"/warm", w, cold, warm, v)

				// Warm with a parallel executor: the cached programs feed
				// the sharded collector too.
				parOpts := cachedOpts
				parOpts.Executor = runtime.NewExecutor(3)
				compareRuns(t, name+"/warm-parallel", w, cold, chase.Run(w.Database, w.Sigma, parOpts), v)

				// Concurrent-shared: several goroutines race the same
				// (fresh) cache; every result must equal the cold run.
				shared := NewCache(8)
				sharedOpts := opts
				sharedOpts.Compile = shared
				const goroutines = 4
				results := make([]*chase.Result, goroutines)
				var wg sync.WaitGroup
				for i := 0; i < goroutines; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						results[i] = chase.Run(w.Database, w.Sigma, sharedOpts)
					}(i)
				}
				wg.Wait()
				for i, r := range results {
					compareRuns(t, fmt.Sprintf("%s/shared%d", name, i), w, cold, r, v)
				}
			}
		}
	}
}

// allGuarded reports whether the forest can be tracked.
func allGuarded(w families.Workload) bool {
	for _, t := range w.Sigma.TGDs {
		if !t.IsGuarded() {
			return false
		}
	}
	return true
}

// compareRuns asserts byte-identical results modulo the cache-interaction
// counters (zeroed on both sides before the Stats comparison: they report
// how the compiled programs were obtained, which is exactly what varies
// between a cold and a cached run).
func compareRuns(t *testing.T, name string, w families.Workload, want, got *chase.Result, v chase.Variant) {
	t.Helper()
	if want.Terminated != got.Terminated {
		t.Fatalf("%s: terminated %v (cold) vs %v (cached)", name, want.Terminated, got.Terminated)
	}
	ws, gs := want.Stats, got.Stats
	ws.CompileHits, ws.CompileMisses = 0, 0
	gs.CompileHits, gs.CompileMisses = 0, 0
	if ws != gs {
		t.Fatalf("%s: stats diverge:\ncold   %+v\ncached %+v", name, ws, gs)
	}
	if wk, gk := want.Instance.CanonicalKey(), got.Instance.CanonicalKey(); wk != gk {
		t.Fatalf("%s: CanonicalKey diverges (%d vs %d atoms)", name, want.Instance.Len(), got.Instance.Len())
	}
	wd, gd := want.Derivation, got.Derivation
	if len(wd.Steps) != len(gd.Steps) {
		t.Fatalf("%s: %d derivation steps (cold) vs %d (cached)", name, len(wd.Steps), len(gd.Steps))
	}
	for i := range wd.Steps {
		ss, ps := wd.Steps[i], gd.Steps[i]
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
	if v != chase.Oblivious {
		if err := gd.Validate(w.Sigma, got.Instance, got.Terminated && v == chase.SemiOblivious); err != nil {
			t.Fatalf("%s: cached derivation invalid: %v", name, err)
		}
	}
	if (want.Forest == nil) != (got.Forest == nil) {
		t.Fatalf("%s: forest presence diverges", name)
	}
	if want.Forest != nil {
		wf, gf := forestEdges(want.Instance, want.Forest), forestEdges(got.Instance, got.Forest)
		if len(wf) != len(gf) {
			t.Fatalf("%s: forest has %d edges (cold) vs %d (cached)", name, len(wf), len(gf))
		}
		for child, parent := range wf {
			if gf[child] != parent {
				t.Fatalf("%s: forest parent of %q: %q vs %q", name, child, parent, gf[child])
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
