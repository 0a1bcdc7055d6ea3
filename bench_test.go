// Benchmarks regenerating the paper's quantitative results (one benchmark
// per experiment of DESIGN.md's index, delegating to internal/experiments
// in quick mode) plus micro-benchmarks of the core operations. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	goruntime "runtime"
	"testing"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/experiments"
	"repro/internal/families"
	"repro/internal/guarded"
	"repro/internal/logic"
	"repro/internal/parser"
	rt "repro/internal/runtime"
	"repro/internal/simplify"
	"repro/internal/telemetry"
	"repro/internal/tgds"
	"repro/internal/tm"
)

// requireMultiCore skips benchmarks whose parallel-vs-sequential numbers
// are misleading on a single-core runner: with one CPU the workers only
// add scheduling overhead, so the recorded "speedup" would be noise.
func requireMultiCore(b *testing.B) {
	b.Helper()
	if n := goruntime.NumCPU(); n < 2 {
		b.Skipf("parallel benchmark skipped: single-core runner (NumCPU=%d, GOMAXPROCS=%d) reports misleading numbers",
			n, goruntime.GOMAXPROCS(0))
	}
}

// reportGOMAXPROCS stamps the runner's parallelism onto the benchmark
// line as a gomaxprocs metric, so every recorded number carries its
// provenance — a single-CPU container's output can never be misread as
// a multi-core result.
func reportGOMAXPROCS(b *testing.B) {
	b.ReportMetric(float64(goruntime.GOMAXPROCS(0)), "gomaxprocs")
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Experiment regenerators (see DESIGN.md per-experiment index).

func BenchmarkXPDepthGrowth(b *testing.B)         { benchExperiment(b, "XP-DEPTH") }
func BenchmarkXPDepthBound(b *testing.B)          { benchExperiment(b, "XP-DEPTH-BOUND") }
func BenchmarkXPGuardedTree(b *testing.B)         { benchExperiment(b, "XP-GTREE") }
func BenchmarkXPSizeLinear(b *testing.B)          { benchExperiment(b, "XP-SIZE-LINEAR") }
func BenchmarkXPLowerBoundSL(b *testing.B)        { benchExperiment(b, "XP-LB-SL") }
func BenchmarkXPLowerBoundL(b *testing.B)         { benchExperiment(b, "XP-LB-L") }
func BenchmarkXPLowerBoundG(b *testing.B)         { benchExperiment(b, "XP-LB-G") }
func BenchmarkXPSimplify(b *testing.B)            { benchExperiment(b, "XP-SIMPLIFY") }
func BenchmarkXPLinearize(b *testing.B)           { benchExperiment(b, "XP-LINEARIZE") }
func BenchmarkXPDeciders(b *testing.B)            { benchExperiment(b, "XP-DECIDE") }
func BenchmarkXPUCQ(b *testing.B)                 { benchExperiment(b, "XP-UCQ") }
func BenchmarkXPTuring(b *testing.B)              { benchExperiment(b, "XP-TM") }
func BenchmarkXPEngines(b *testing.B)             { benchExperiment(b, "XP-ENGINES") }
func BenchmarkXPUniformVsNonUniform(b *testing.B) { benchExperiment(b, "XP-UNIFORM") }
func BenchmarkXPAblation(b *testing.B)            { benchExperiment(b, "XP-ABLATION") }
func BenchmarkXPLinTypes(b *testing.B)            { benchExperiment(b, "XP-LIN-TYPES") }
func BenchmarkXPOBDA(b *testing.B)                { benchExperiment(b, "XP-OBDA") }
func BenchmarkXPProfile(b *testing.B)             { benchExperiment(b, "XP-PROFILE") }
func BenchmarkXPRestricted(b *testing.B)          { benchExperiment(b, "XP-RESTRICTED") }

// Micro-benchmarks of the core operations.

// BenchmarkChaseThroughput measures semi-oblivious chase speed on the
// Theorem 6.5 family (a saturation-heavy workload) in atoms per second.
func BenchmarkChaseThroughput(b *testing.B) {
	w := families.SLLower(2, 2, 2)
	b.ResetTimer()
	atoms := 0
	for i := 0; i < b.N; i++ {
		res := chase.Run(w.Database, w.Sigma, chase.Options{})
		if !res.Terminated {
			b.Fatal("unexpected budget hit")
		}
		atoms = res.Instance.Len()
	}
	b.ReportMetric(float64(atoms), "atoms/op")
}

// BenchmarkChaseGuarded measures the guarded family's chase (arity-6
// joins, 40+ TGDs).
func BenchmarkChaseGuarded(b *testing.B) {
	w := families.GLower(1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := chase.Run(w.Database, w.Sigma, chase.Options{})
		if !res.Terminated {
			b.Fatal("unexpected budget hit")
		}
	}
}

// chaseBody returns the engine-job body that chases db with sigma, the
// one every job of a bench fleet shares.
func chaseBody(db *logic.Instance, sigma *tgds.Set) func(chase.Options) (*chase.Result, error) {
	return func(o chase.Options) (*chase.Result, error) { return chase.Run(db, sigma, o), nil }
}

// BenchmarkSchedulerThroughput measures the streaming job scheduler on a
// fleet of small chase jobs (the serving shape: one job per (D, Σ)
// request) submitted incrementally against a bounded admission queue
// (requests arrive continuously and Submit blocks at the bound). The
// queue-bound sweep prices backpressure: a tight bound forces the
// submitter to interleave with the workers, a loose one admits the whole
// fleet up front. The cold/warm axis prices the shared compilation cache,
// passed through chase.Options.Compile, on the streamed path. Single-
// worker runs keep the numbers meaningful on single-core runners; the
// multi-core variant is gated like the other parallel benches.
func BenchmarkSchedulerThroughput(b *testing.B) {
	const jobs = 64
	w := families.SLLower(2, 2, 2)
	run := chaseBody(w.Database, w.Sigma)
	runFleet := func(b *testing.B, workers, bound int, comp chase.Compiler) {
		for i := 0; i < b.N; i++ {
			s := rt.NewScheduler(rt.SchedulerConfig{Workers: workers, QueueBound: bound})
			tickets := make([]*rt.Ticket, jobs)
			for j := 0; j < jobs; j++ {
				tk, err := s.SubmitChase(context.Background(), rt.ChaseSpec{
					Name: fmt.Sprintf("job-%d", j), Options: chase.Options{Compile: comp}, Run: run,
				})
				if err != nil {
					b.Fatal(err)
				}
				tickets[j] = tk
			}
			for _, r := range rt.Gather(tickets) {
				if r.Err != nil || !r.Value.(*chase.Result).Terminated {
					b.Fatalf("job %s: %+v", r.Name, r)
				}
			}
			s.Close()
		}
		b.ReportMetric(float64(jobs), "jobs/op")
		reportGOMAXPROCS(b)
	}
	for _, bound := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("bound-%d/cold", bound), func(b *testing.B) {
			runFleet(b, 1, bound, nil)
		})
		b.Run(fmt.Sprintf("bound-%d/warm", bound), func(b *testing.B) {
			cache := compile.NewCache(8)
			cache.CompiledChase(w.Sigma)
			b.ResetTimer()
			runFleet(b, 1, bound, cache)
		})
	}
	b.Run("workers-4/bound-16/warm", func(b *testing.B) {
		requireMultiCore(b)
		cache := compile.NewCache(8)
		cache.CompiledChase(w.Sigma)
		b.ResetTimer()
		runFleet(b, 4, 16, cache)
	})
}

// benchObserver feeds registry counters with per-round deltas, mirroring
// the scheduler's own chase observer (which is unexported) so the
// "enabled" arm of BenchmarkTelemetryOverhead prices the same per-round
// work a telemetry-enabled scheduler adds to a run.
type benchObserver struct {
	rounds   *telemetry.Counter
	atoms    *telemetry.Counter
	triggers *telemetry.Counter

	started    bool
	prevAtoms  int
	prevFired  int
	prevRounds int
}

func newBenchObserver(r *telemetry.Registry) *benchObserver {
	return &benchObserver{
		rounds:   r.Counter("chase_rounds_total", "Chase saturation rounds completed."),
		atoms:    r.Counter("chase_atoms_derived_total", "Atoms derived beyond the input database."),
		triggers: r.Counter("chase_triggers_fired_total", "Triggers fired."),
	}
}

func (o *benchObserver) reset() {
	o.started = false
	o.prevAtoms, o.prevFired, o.prevRounds = 0, 0, 0
}

func (o *benchObserver) bill(st chase.Stats) {
	if !o.started {
		o.started = true
		o.prevAtoms = st.InitialAtoms
	}
	o.rounds.Add(uint64(st.Rounds - o.prevRounds))
	o.atoms.Add(uint64(st.Atoms - o.prevAtoms))
	o.triggers.Add(uint64(st.TriggersFired - o.prevFired))
	o.prevRounds, o.prevAtoms, o.prevFired = st.Rounds, st.Atoms, st.TriggersFired
}

func (o *benchObserver) ObserveRound(st chase.Stats)        { o.bill(st) }
func (o *benchObserver) ObserveDone(st chase.Stats, _ bool) { o.bill(st) }

// BenchmarkTelemetryOverhead prices the observability seam on the
// guarded-chase hot path. "disabled" is the plain run every
// telemetry-less scheduler drives — its allocs/op must track
// BenchmarkChaseGuarded (the seam is a nil Observer field, nothing
// more); CI's bench-smoke job holds it within 2% of the recorded
// baseline. "enabled" attaches the registry-fed observer and so prices
// the full per-round metering a telemetry-enabled scheduler adds.
func BenchmarkTelemetryOverhead(b *testing.B) {
	w := families.GLower(1, 1, 1)
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := chase.Run(w.Database, w.Sigma, chase.Options{})
			if !res.Terminated {
				b.Fatal("unexpected budget hit")
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tel := telemetry.New()
		obs := newBenchObserver(tel.Registry)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			obs.reset()
			res := chase.Run(w.Database, w.Sigma, chase.Options{Observer: obs})
			if !res.Terminated {
				b.Fatal("unexpected budget hit")
			}
		}
		b.StopTimer()
		if obs.rounds.Value() == 0 {
			b.Fatal("observer billed nothing")
		}
	})
}

// BenchmarkSchedulerCompileCache measures the cross-request compilation
// cache on the serving shapes it exists for: scheduler fleets of jobs
// sharing one Σ. "cold" fleets rebuild Σ's artifacts inside every job,
// "warm" fleets share a pre-populated compile.Cache; the cold-vs-warm
// delta is the per-job compilation saving.
// Single-worker schedulers keep the comparison meaningful on single-core
// runners.
//
// Two fleet shapes bound the effect. chase fleets only save the engine's
// per-run program compilation (deliberately cheap and lazy since the
// interned-ID rework, so the delta is small); decide fleets run the
// chtrm -method ucq serving path, where the per-job saving is the whole
// simplification + dependency-graph + UCQ construction and the cache
// pays for itself immediately.
func BenchmarkSchedulerCompileCache(b *testing.B) {
	// runFleet admits one fleet through submit into a fresh single-worker
	// scheduler as deep as the fleet, and fails on any job error.
	runFleet := func(b *testing.B, jobs int, submit func(s *rt.Scheduler, j int) (*rt.Ticket, error)) {
		for i := 0; i < b.N; i++ {
			s := rt.NewScheduler(rt.SchedulerConfig{Workers: 1, QueueBound: jobs})
			tickets := make([]*rt.Ticket, jobs)
			for j := range tickets {
				tk, err := submit(s, j)
				if err != nil {
					b.Fatal(err)
				}
				tickets[j] = tk
			}
			for _, r := range rt.Gather(tickets) {
				if r.Err != nil {
					b.Fatalf("%s: %v", r.Name, r.Err)
				}
			}
			s.Close()
		}
	}
	b.Run("chase", func(b *testing.B) {
		const jobs = 32
		w := families.GLower(1, 1, 1) // 40+ guarded TGDs, multi-round chase
		run := chaseBody(w.Database, w.Sigma)
		chaseJobs := func(comp chase.Compiler) func(*rt.Scheduler, int) (*rt.Ticket, error) {
			return func(s *rt.Scheduler, j int) (*rt.Ticket, error) {
				return s.SubmitChase(context.Background(), rt.ChaseSpec{
					Name: fmt.Sprintf("job-%d", j), Options: chase.Options{Compile: comp}, Run: run,
				})
			}
		}
		b.Run("cold", func(b *testing.B) { runFleet(b, jobs, chaseJobs(nil)) })
		b.Run("warm", func(b *testing.B) {
			cache := compile.NewCache(8)
			cache.CompiledChase(w.Sigma)
			b.ResetTimer()
			runFleet(b, jobs, chaseJobs(cache))
		})
	})
	b.Run("decide-ucq", func(b *testing.B) {
		const jobs = 64
		w := families.LLower(1, 2, 1) // arity-4 linear set: simplification-heavy
		dbs := make([]*logic.Instance, jobs)
		for j := range dbs {
			dbs[j] = logic.NewDatabase(logic.MakeAtom("q2",
				logic.Constant(string(rune('a'+j%26)))))
		}
		// Failures surface as job errors, never as b.Fatal from a
		// scheduler worker goroutine (testing.B forbids FailNow off the
		// benchmark goroutine).
		decideJobs := func(build func() (core.UCQ, error)) func(*rt.Scheduler, int) (*rt.Ticket, error) {
			return func(s *rt.Scheduler, j int) (*rt.Ticket, error) {
				db := dbs[j]
				return s.Submit(context.Background(), rt.Job{Name: fmt.Sprintf("decide-%d", j), Run: func(context.Context) (any, error) {
					q, err := build()
					if err != nil {
						return nil, err
					}
					if q.EvalExact(db) {
						return nil, fmt.Errorf("unreachable predicate must not satisfy Q")
					}
					return nil, nil
				}})
			}
		}
		b.Run("cold", func(b *testing.B) {
			runFleet(b, jobs, decideJobs(func() (core.UCQ, error) { return core.BuildUCQL(w.Sigma) }))
		})
		b.Run("warm", func(b *testing.B) {
			cache := compile.NewCache(8)
			if _, err := cache.UCQL(w.Sigma); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			runFleet(b, jobs, decideJobs(func() (core.UCQ, error) { return cache.UCQL(w.Sigma) }))
		})
	})
}

// BenchmarkCompileSet measures the one-time cost a cache hit avoids:
// compiling every per-TGD head and body program of an analysis-heavy Σ.
func BenchmarkCompileSet(b *testing.B) {
	w := families.GLower(1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chase.Compile(w.Sigma)
	}
}

// BenchmarkFingerprint measures the cache's key function (also the
// wire-level schema identity of the distributed-sharding roadmap item).
func BenchmarkFingerprint(b *testing.B) {
	w := families.GLower(1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compile.Of(w.Sigma)
	}
}

// BenchmarkChaseVariants compares the three engines on a shared workload.
func BenchmarkChaseVariants(b *testing.B) {
	db := parser.MustParseDatabase(`e(a, b). e(b, c). e(c, d). e(d, a).`)
	rules := parser.MustParseRules(`
		e(X, Y) -> ∃Z m(Y, Z).
		m(X, Z) -> p(X).
	`)
	for _, v := range []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chase.Run(db, rules, chase.Options{Variant: v})
			}
		})
	}
}

// BenchmarkMatch measures the conjunctive matcher on a 3-way join.
func BenchmarkMatch(b *testing.B) {
	in := logic.NewInstance()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		in.Add(logic.MakeAtom("e",
			logic.Constant(string(rune('a'+rng.Intn(26)))),
			logic.Constant(string(rune('a'+rng.Intn(26))))))
	}
	x, y, z := logic.Variable("X"), logic.Variable("Y"), logic.Variable("Z")
	body := []*logic.Atom{
		logic.MakeAtom("e", x, y),
		logic.MakeAtom("e", y, z),
		logic.MakeAtom("e", z, x),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		logic.MatchAll(body, in, func(logic.Substitution) bool {
			count++
			return true
		})
	}
}

// BenchmarkWeakAcyclicity measures the non-uniform WA check on the
// guarded family's (large) gsimple output-scale dependency graph.
func BenchmarkWeakAcyclicity(b *testing.B) {
	w := families.GLower(1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depgraph.IsWeaklyAcyclicFor(w.Database, w.Sigma)
	}
}

// BenchmarkSimplifySet measures simplification of an arity-4 linear set
// (Bell-number many specializations per TGD).
func BenchmarkSimplifySet(b *testing.B) {
	w := families.LLower(1, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simplify.Set(w.Sigma); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompletion measures the guarded completion engine.
func BenchmarkCompletion(b *testing.B) {
	sigma := parser.MustParseRules(`
		e(X, Y) -> ∃Z e(Y, Z).
		e(X, Y) -> p(X).
		p(X) -> ∃W q(X, W).
		q(X, W) -> p(X).
	`)
	db := parser.MustParseDatabase(`e(a, b). e(b, c).`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := guarded.Complete(db, sigma); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinearize measures full reachable linearization of a guarded
// set.
func BenchmarkLinearize(b *testing.B) {
	sigma := parser.MustParseRules(`
		e(X, Y), s(X) -> ∃Z e(Y, Z).
		e(X, Y), s(X) -> s(Y).
	`)
	db := parser.MustParseDatabase(`e(a, b). s(a). e(b, b).`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := guarded.NewLinearizer(sigma)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := l.Linearize(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeciders measures the three syntactic deciders end to end.
func BenchmarkDeciders(b *testing.B) {
	slW := families.SLLower(4, 2, 2)
	lW := families.LLower(4, 1, 2)
	gW := families.GLower(1, 1, 1)
	b.Run("SL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DecideSL(slW.Database, slW.Sigma, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("L", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DecideL(lW.Database, lW.Sigma, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("G", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DecideG(gW.Database, gW.Sigma); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecideGuarded measures one Theorem 8.3 decision in the shape of
// perfbench's decide-guarded workload: RandomGuarded Σ-seed 8 (5
// predicates, 6 rules, arity at most 3) against 200-fact databases over 40
// constants, cycling through a fixed pool of them. CI pins its allocs/op.
func BenchmarkDecideGuarded(b *testing.B) {
	cfg := families.DefaultRandomConfig()
	cfg.Predicates, cfg.Rules, cfg.MaxArity = 5, 6, 3
	sigma := families.RandomGuarded(rand.New(rand.NewSource(8)), cfg)
	dbs := make([]*logic.Instance, 16)
	for i := range dbs {
		dbs[i] = families.RandomDatabase(rand.New(rand.NewSource(int64(i+1))), sigma, 200, 40)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := core.DecideG(dbs[i%len(dbs)], sigma); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkUCQEval measures UCQ evaluation over a growing database (the
// AC⁰ data-complexity procedure's data-side cost).
func BenchmarkUCQEval(b *testing.B) {
	sigma := parser.MustParseRules(`
		p(X) -> ∃Y r(X, Y).
		r(X, Y) -> ∃Z r(Y, Z).
	`)
	q, err := core.BuildUCQSL(sigma)
	if err != nil {
		b.Fatal(err)
	}
	db := logic.NewInstance()
	for i := 0; i < 10000; i++ {
		db.Add(logic.MakeAtom("q2", logic.Constant(string(rune('a'+i%26))+string(rune('0'+i%10)))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.EvalExact(db) {
			b.Fatal("unreachable predicates must not satisfy Q")
		}
	}
}

// BenchmarkTuringChase measures the Appendix A reduction end to end for a
// short halting computation.
func BenchmarkTuringChase(b *testing.B) {
	m := tm.BounceAndHalt(2)
	db := m.Database()
	sigma := tm.FixedSigma()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := chase.Run(db, sigma, chase.Options{MaxAtoms: 100000})
		if !res.Terminated {
			b.Fatal("halting machine must terminate")
		}
	}
}

// BenchmarkParser measures parsing throughput.
func BenchmarkParser(b *testing.B) {
	src := `
		person(alice). person(bob). knows(alice, bob).
		knows(X, Y) -> person(Y).
		person(X) -> ∃Y likes(X, Y).
		likes(X, Y), person(X) -> ∃Z wants(X, Z), item(Z).
	`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
