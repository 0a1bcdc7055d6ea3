package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/families"
)

// Round 1 now shards through the executor too (windowing each TGD's
// join-start atom over the bulk-loaded instance), and later rounds size
// their windows adaptively from observed trigger density. Both must be
// invisible: a bulk-load database large enough to split round 1 into
// many windows must chase byte-identically at every worker count, for
// all three variants, on full runs and MaxAtoms-truncated prefixes.
func TestParallelRoundOneBulkLoadDeterminism(t *testing.T) {
	rcfg := families.RandomConfig{
		Predicates: 3, MaxArity: 3, Rules: 4, MaxHeadAtoms: 2,
		ExistentialProb: 0.45, RepeatProb: 0.3, SideAtoms: 1,
	}
	rng := rand.New(rand.NewSource(431))
	sigma := families.RandomGuarded(rng, rcfg)
	// A bulk load: enough initial facts that round 1's windows (default
	// width 128) number in the dozens, so the merge order actually matters.
	db := families.RandomDatabase(rng, sigma, 4000, 40)
	w := families.Workload{Sigma: sigma, Database: db}
	variants := []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted}
	for _, v := range variants {
		for _, budget := range []int{db.Len() + 50, db.Len() + 2000} {
			opts := chase.Options{Variant: v, MaxAtoms: budget, RecordDerivation: true}
			seq := chase.Run(w.Database, w.Sigma, opts)
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%v/budget%d/w%d", v, budget, workers)
				par := opts
				par.Executor = NewExecutor(workers)
				got := chase.Run(w.Database, w.Sigma, par)
				compareRuns(t, name, w, seq, got, v)
			}
		}
	}
}

// A pooled scratch is pure reuse: running the same job on a warm scratch
// must be byte-identical to a cold run — same CanonicalKey, same Stats
// (ArenaBlocks included) — and must never corrupt the previous run's
// result instance (the arena abandons its blocks on reset, so a reused
// scratch cannot alias atoms that escaped into an earlier instance).
func TestScratchReuseByteIdentity(t *testing.T) {
	w1 := families.GLower(1, 1, 1)
	w2 := families.SLLower(2, 2, 2)
	opts := chase.Options{RecordDerivation: true}
	cold1 := chase.Run(w1.Database, w1.Sigma, opts)
	cold2 := chase.Run(w2.Database, w2.Sigma, opts)

	sc := chase.NewScratch()
	warm := opts
	warm.Executor = NewExecutor(4) // exercise the worker slabs too
	warm.Scratch = sc
	first := chase.Run(w1.Database, w1.Sigma, warm)
	firstKey := first.Instance.CanonicalKey()
	var firstAtoms []string
	for _, a := range first.Instance.Atoms() {
		firstAtoms = append(firstAtoms, a.Key())
	}
	second := chase.Run(w2.Database, w2.Sigma, warm)

	if first.Stats != cold1.Stats || firstKey != cold1.Instance.CanonicalKey() {
		t.Fatalf("scratch run 1 diverges from cold run:\ncold %+v\nwarm %+v", cold1.Stats, first.Stats)
	}
	if second.Stats != cold2.Stats || second.Instance.CanonicalKey() != cold2.Instance.CanonicalKey() {
		t.Fatalf("scratch run 2 diverges from cold run:\ncold %+v\nwarm %+v", cold2.Stats, second.Stats)
	}
	if sc.Runs() != 2 {
		t.Fatalf("scratch served %d runs, want 2", sc.Runs())
	}
	// The second run reused the scratch; the first run's atoms must be
	// untouched, atom by atom.
	if got := first.Instance.CanonicalKey(); got != firstKey {
		t.Fatal("second run on the shared scratch mutated the first result's CanonicalKey")
	}
	for i, a := range first.Instance.Atoms() {
		if a.Key() != firstAtoms[i] {
			t.Fatalf("second run mutated atom %d of the first result: %s -> %s", i, firstAtoms[i], a.Key())
		}
	}
}

// The scheduler gives each worker one scratch for life; every job after
// a worker's first must count as a reuse, with results byte-identical to
// scratchless execution (the fleet determinism suite pins the values —
// here we pin that the pooling is actually happening).
func TestSchedulerScratchReuseCounter(t *testing.T) {
	w := families.GLower(1, 1, 1)
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 8})
	defer s.Close()
	const jobs = 5
	tickets := make([]*Ticket, 0, jobs)
	for i := 0; i < jobs; i++ {
		tk, err := s.SubmitChase(context.Background(), chaseSpec(fmt.Sprintf("job-%d", i), w.Database, w.Sigma, chase.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	base := chase.Run(w.Database, w.Sigma, chase.Options{})
	for _, r := range Gather(tickets) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		res := r.Value.(*chase.Result)
		if res.Stats != base.Stats || res.Instance.CanonicalKey() != base.Instance.CanonicalKey() {
			t.Fatalf("%s: pooled-scratch job diverges from direct run", r.Name)
		}
	}
	// One worker, five jobs: all but the worker's first run are reuses.
	if got := s.ScratchReuses(); got != jobs-1 {
		t.Fatalf("ScratchReuses = %d, want %d", got, jobs-1)
	}
}

// A job that carries its own Options.Scratch keeps it: the scheduler's
// per-worker scratch must not displace an explicitly chosen one.
func TestExplicitScratchWins(t *testing.T) {
	w := families.GLower(1, 1, 1)
	sc := chase.NewScratch()
	opts := chase.Options{Scratch: sc}
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 2})
	defer s.Close()
	tk, err := s.SubmitChase(context.Background(), chaseSpec("explicit", w.Database, w.Sigma, opts))
	if err != nil {
		t.Fatal(err)
	}
	if r := <-tk.Done(); r.Err != nil {
		t.Fatal(r.Err)
	}
	if sc.Runs() != 1 {
		t.Fatalf("explicit scratch served %d runs, want 1", sc.Runs())
	}
}
