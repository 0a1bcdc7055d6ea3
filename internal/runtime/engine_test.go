package runtime

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/tgds"
)

// chaseSpec is the engine job that chases db with sigma under opts.
func chaseSpec(name string, db *logic.Instance, sigma *tgds.Set, opts chase.Options) ChaseSpec {
	return ChaseSpec{Name: name, Options: opts, Run: func(o chase.Options) (*chase.Result, error) {
		return chase.Run(db, sigma, o), nil
	}}
}

// submitAll submits the engine jobs in order and gathers their results.
func submitAll(t *testing.T, s *Scheduler, specs ...ChaseSpec) []JobResult {
	t.Helper()
	tickets := make([]*Ticket, len(specs))
	for i, spec := range specs {
		tk, err := s.SubmitChase(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	return Gather(tickets)
}

// A wall budget must bound the run even when a single round's collection
// phase dwarfs it: Interrupt is polled inside collection, so the overshoot
// is bounded by the poll interval, not by the round.
func TestChaseJobWallBudgetInterruptsCollectPhase(t *testing.T) {
	// Round 2 collects the e × e cross join (~2.25M matches) in one round.
	db := logic.NewInstance()
	for i := 0; i < 1500; i++ {
		db.Add(logic.MakeAtom("s", logic.Constant(fmt.Sprintf("c%d", i))))
	}
	sigma := parser.MustParseRules(`
		s(X) -> e(X, X).
		e(X, Y), e(Z, W) -> p(X).
	`)
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 1})
	defer s.Close()
	start := time.Now()
	spec := chaseSpec("cross-join", db, sigma, chase.Options{})
	spec.Wall = 20 * time.Millisecond
	r := submitAll(t, s, spec)[0]
	if res := r.Value.(*chase.Result); res.Terminated || !r.TimedOut {
		t.Fatalf("wall-capped cross join: terminated=%v timedOut=%v", res.Terminated, r.TimedOut)
	}
	// Generous bound: an un-polled collect phase would run the full cross
	// join (hundreds of milliseconds to seconds, more under -race).
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wall budget overshot the collect phase: %v elapsed", elapsed)
	}
}

// Atom and round caps ride on chase.Options, the wall budget on the
// spec; each truncates an infinite chase without an error, and only the
// wall budget marks the job TimedOut.
func TestChaseJobBudgets(t *testing.T) {
	db := parser.MustParseDatabase(`e(a, b).`)
	infinite := parser.MustParseRules(`e(X, Y) -> ∃Z e(Y, Z).`)
	finite := parser.MustParseRules(`e(X, Y) -> p(X).`)

	// MaxRounds backstops the wall-clock budget so a broken Interrupt cannot
	// hang the test; the wall budget fires orders of magnitude earlier.
	wall := chaseSpec("wall-capped", db, infinite, chase.Options{MaxRounds: 1 << 30})
	wall.Wall = 30 * time.Millisecond
	s := NewScheduler(SchedulerConfig{Workers: 2, QueueBound: 4})
	defer s.Close()
	results := submitAll(t, s,
		chaseSpec("finite", db, finite, chase.Options{}),
		chaseSpec("atom-capped", db, infinite, chase.Options{MaxAtoms: 50}),
		chaseSpec("round-capped", db, infinite, chase.Options{MaxRounds: 7}),
		wall)
	for i, r := range results {
		if r.Err != nil || r.Canceled || r.TimedOut != (i == 3) {
			t.Fatalf("%s: err=%v canceled=%v timedOut=%v", r.Name, r.Err, r.Canceled, r.TimedOut)
		}
	}

	fin := results[0].Value.(*chase.Result)
	if !fin.Terminated || fin.Instance.Len() != 2 {
		t.Fatalf("finite job: %+v", fin.Stats)
	}
	atoms := results[1].Value.(*chase.Result)
	if atoms.Terminated || atoms.Instance.Len() <= 50 {
		t.Fatalf("atom-capped job terminated=%v len=%d", atoms.Terminated, atoms.Instance.Len())
	}
	rounds := results[2].Value.(*chase.Result)
	if rounds.Terminated || rounds.Stats.Rounds != 7 {
		t.Fatalf("round-capped job terminated=%v rounds=%d", rounds.Terminated, rounds.Stats.Rounds)
	}
	if results[3].Value.(*chase.Result).Terminated {
		t.Fatal("wall-capped job reported termination")
	}
}

// A fleet sharing one compiler through chase.Options.Compile must pay
// Σ's compilation once — exactly one job misses, every other job hits —
// and produce results byte-identical to an uncached fleet.
func TestSchedulerSharedCompiler(t *testing.T) {
	sigma := parser.MustParseRules(`
		e(X, Y) -> ∃Z m(Y, Z).
		m(X, Z) -> p(X).
	`)
	db := parser.MustParseDatabase(`e(a, b). e(b, c). e(c, a).`)
	const jobs = 8

	runFleet := func(comp chase.Compiler) []*chase.Result {
		s := NewScheduler(SchedulerConfig{Workers: 2, QueueBound: jobs})
		defer s.Close()
		specs := make([]ChaseSpec, jobs)
		for j := range specs {
			specs[j] = chaseSpec(fmt.Sprintf("job-%d", j), db, sigma, chase.Options{Compile: comp})
		}
		out := make([]*chase.Result, jobs)
		for i, r := range submitAll(t, s, specs...) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Name, r.Err)
			}
			out[i] = r.Value.(*chase.Result)
		}
		return out
	}

	cached := runFleet(compile.NewCache(4))
	plain := runFleet(nil)

	hits, misses := 0, 0
	for i := range cached {
		hits += cached[i].Stats.CompileHits
		misses += cached[i].Stats.CompileMisses
		if got, want := cached[i].Instance.CanonicalKey(), plain[i].Instance.CanonicalKey(); got != want {
			t.Fatalf("job %d: cached instance differs from uncached", i)
		}
		cs, ps := cached[i].Stats, plain[i].Stats
		cs.CompileHits, cs.CompileMisses = 0, 0
		if cs != ps {
			t.Fatalf("job %d: cached stats %+v differ from uncached %+v", i, cs, ps)
		}
	}
	if misses != 1 || hits != jobs-1 {
		t.Fatalf("fleet compile stats: %d misses / %d hits, want 1 / %d", misses, hits, jobs-1)
	}
	if plain[0].Stats.CompileHits != 0 || plain[0].Stats.CompileMisses != 0 {
		t.Fatal("uncached fleet must not report compile fetches")
	}
}
