package runtime

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/checkpoint"
	"repro/internal/compile"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/telemetry"
	"repro/internal/tgds"
)

// resumeSpec is the engine job that resumes cp over delta under opts.
func resumeSpec(name string, cp *checkpoint.Checkpoint, sigma *tgds.Set, delta []*logic.Atom, opts chase.Options) ChaseSpec {
	return ChaseSpec{Name: name, Options: opts, Resume: true, Run: func(o chase.Options) (*chase.Result, error) {
		return cp.Resume(sigma, delta, o)
	}}
}

// TestSchedulerResume runs a resume job through a traced scheduler and
// checks the three contracts: the result is byte-identical to a direct
// checkpoint.Resume, the terminal trace span is "resume" (not "chase"),
// and an ontology mismatch surfaces as the job's error — typed, so the
// service layer can classify it.
func TestSchedulerResume(t *testing.T) {
	db := parser.MustParseDatabase(`e(n0, n1). e(n1, n2). e(n2, n3).`)
	sigma := parser.MustParseRules(`e(X, Y), e(Y, Z) -> e(X, Z).`)
	base := chase.Run(db, sigma, chase.Options{Checkpoint: true})
	cp, err := checkpoint.Capture(sigma, base)
	if err != nil {
		t.Fatal(err)
	}
	delta := []*logic.Atom{logic.MakeAtom("e", logic.Constant("n3"), logic.Constant("n4"))}

	want, err := cp.Resume(sigma, delta, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	tel.Trace = telemetry.NewTraceSink()
	tel.Trace.SetClock(func() time.Time { return time.Unix(42, 0) })
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 2, Telemetry: tel})
	defer s.Close()

	spec := resumeSpec("delta-1", cp, sigma, delta, chase.Options{Compile: compile.NewCache(4)})
	spec.Meta = JobMeta{Tenant: "acme"}
	tk, err := s.SubmitChase(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r := tk.Wait()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	got := r.Value.(*chase.Result)
	if !got.Terminated {
		t.Fatal("resumed run did not terminate")
	}
	if got.Instance.CanonicalKey() != want.Instance.CanonicalKey() {
		t.Fatal("scheduled resume diverged from direct resume")
	}
	ga, wa := got.Instance.Atoms(), want.Instance.Atoms()
	for i := range ga {
		if ga[i].Key() != wa[i].Key() {
			t.Fatalf("atom %d: %v != %v (insertion order diverged)", i, ga[i], wa[i])
		}
	}

	var sawResume, sawChase bool
	for _, ev := range tel.Trace.Events() {
		switch ev.Span {
		case "resume":
			sawResume = true
		case "chase":
			sawChase = true
		}
	}
	if !sawResume || sawChase {
		t.Fatalf("trace spans: resume=%v chase=%v, want the terminal span named resume", sawResume, sawChase)
	}

	// A mismatched ontology fails the ticket with the typed error.
	other := parser.MustParseRules(`e(X, Y) -> p(X).`)
	tk2, err := s.SubmitChase(context.Background(), resumeSpec("bad", cp, other, nil, chase.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if r := tk2.Wait(); !errors.Is(r.Err, checkpoint.ErrMismatch) || r.Value != nil {
		t.Fatalf("mismatch resume: err = %v value = %v, want checkpoint.ErrMismatch and no value", r.Err, r.Value)
	}
}

// TestResumeJobBudget: a resumed run honors the round cap on its
// chase.Options and reports truncation through Terminated, not an
// error — the same contract as a fresh chase job.
func TestResumeJobBudget(t *testing.T) {
	db := parser.MustParseDatabase(`e(a, b).`)
	sigma := parser.MustParseRules(`e(X, Y) -> ∃Z e(Y, Z).`)
	base := chase.Run(db, sigma, chase.Options{Checkpoint: true, MaxRounds: 2})
	cp, err := checkpoint.Capture(sigma, base)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 1})
	defer s.Close()
	tk, err := s.SubmitChase(context.Background(), resumeSpec("walk-on", cp, sigma, nil, chase.Options{MaxRounds: 3}))
	if err != nil {
		t.Fatal(err)
	}
	r := tk.Wait()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	res := r.Value.(*chase.Result)
	if res.Terminated {
		t.Fatal("infinite walk reported terminated")
	}
	if res.Stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3 (the resumed run's own rounds)", res.Stats.Rounds)
	}
	if res.Stats.Atoms <= base.Stats.Atoms {
		t.Fatal("resumed run derived nothing")
	}
}
