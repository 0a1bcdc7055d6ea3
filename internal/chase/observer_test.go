package chase

import "testing"

// recorder counts observations and remembers the final callback.
type recorder struct {
	rounds     int
	doneCalls  int
	last       Stats
	terminated bool
}

func (r *recorder) ObserveRound(s Stats) { r.rounds++; r.last = s }
func (r *recorder) ObserveDone(s Stats, terminated bool) {
	r.doneCalls++
	r.last = s
	r.terminated = terminated
}

// TestObserverCallbacks: an Observer sees every round boundary plus
// exactly one done callback carrying the final statistics, and the
// observed run's result is byte-identical to the unobserved run.
func TestObserverCallbacks(t *testing.T) {
	dbSrc := `e(a, b). e(b, c).`
	rulesSrc := `e(X, Y) -> ∃Z e(Y, Z).
	             e(X, Y) -> p(X).`
	rec := &recorder{}
	obs := run(t, dbSrc, rulesSrc, Options{MaxAtoms: 60, Observer: rec})
	plain := run(t, dbSrc, rulesSrc, Options{MaxAtoms: 60})
	if got, want := obs.Instance.CanonicalKey(), plain.Instance.CanonicalKey(); got != want {
		t.Fatal("observer changed the chase result")
	}
	if rec.doneCalls != 1 {
		t.Fatalf("done calls = %d, want 1", rec.doneCalls)
	}
	if rec.rounds != obs.Stats.Rounds {
		t.Fatalf("observed %d rounds, stats say %d", rec.rounds, obs.Stats.Rounds)
	}
	if rec.last.Atoms != obs.Stats.Atoms || rec.terminated != obs.Terminated {
		t.Fatalf("final observation %+v/%v vs result %+v/%v",
			rec.last, rec.terminated, obs.Stats, obs.Terminated)
	}

	// A terminating run reports terminated=true to ObserveDone.
	rec2 := &recorder{}
	res := run(t, `r(a, b).`, `r(X, Y) -> p(X).`, Options{Observer: rec2})
	if !res.Terminated || !rec2.terminated || rec2.doneCalls != 1 {
		t.Fatalf("terminating run: result=%v observed=%v calls=%d",
			res.Terminated, rec2.terminated, rec2.doneCalls)
	}
}

// TestObserverWithoutProgress: an Observer alone sees every round
// boundary of a terminating run, the fixpoint round included — it is the
// engine's only round hook, with no progress callback beside it.
func TestObserverWithoutProgress(t *testing.T) {
	rec := &recorder{}
	res := run(t, `r(a, b).`, `r(X, Y) -> p(X). p(X) -> q(X).`, Options{Observer: rec})
	if rec.rounds == 0 || rec.rounds != res.Stats.Rounds {
		t.Fatalf("rounds observed = %d, stats = %d", rec.rounds, res.Stats.Rounds)
	}
}

func TestMultiObserver(t *testing.T) {
	if MultiObserver() != nil || MultiObserver(nil, nil) != nil {
		t.Fatal("empty fan-out is not nil")
	}
	a := &recorder{}
	if MultiObserver(nil, a, nil) != Observer(a) {
		t.Fatal("single live observer not returned directly")
	}
	b := &recorder{}
	m := MultiObserver(a, b)
	m.ObserveRound(Stats{Rounds: 1})
	m.ObserveDone(Stats{Rounds: 1}, true)
	for i, r := range []*recorder{a, b} {
		if r.rounds != 1 || r.doneCalls != 1 || !r.terminated {
			t.Fatalf("observer %d missed fan-out: %+v", i, r)
		}
	}
	// More observers than the fan-out's inline room.
	four := []*recorder{{}, {}, {}, {}}
	m = MultiObserver(four[0], nil, four[1], four[2], four[3])
	m.ObserveRound(Stats{Rounds: 1})
	m.ObserveDone(Stats{Rounds: 1}, false)
	for i, r := range four {
		if r.rounds != 1 || r.doneCalls != 1 || r.terminated {
			t.Fatalf("observer %d of four missed fan-out: %+v", i, r)
		}
	}
}

// TestMultiObserverAllocs: joining observers allocates only when there
// is a fan-out to build, and then once.
func TestMultiObserverAllocs(t *testing.T) {
	var a, b, c Observer = &recorder{}, &recorder{}, &recorder{}
	cases := []struct {
		name string
		join func() Observer
		want float64
	}{
		{"none", func() Observer { return MultiObserver(nil, nil) }, 0},
		{"one", func() Observer { return MultiObserver(nil, a, nil) }, 0},
		{"two", func() Observer { return MultiObserver(a, nil, b) }, 1},
		{"three", func() Observer { return MultiObserver(a, b, c) }, 1},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(100, func() { tc.join() }); got != tc.want {
			t.Errorf("%s: %v allocs per join, want %v", tc.name, got, tc.want)
		}
	}
}
