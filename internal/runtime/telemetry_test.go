package runtime

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/families"
	"repro/internal/parser"
	"repro/internal/telemetry"
)

// TestSchedulerTelemetryMetrics runs a small mixed fleet through a
// telemetry-enabled scheduler and checks every scheduler family: the
// admission counter per (lane, tenant), the completion counter per
// outcome, the queue depth returning to zero, the per-lane queue-wait
// histogram, and the chase counters agreeing with the runs' own Stats.
func TestSchedulerTelemetryMetrics(t *testing.T) {
	tel := telemetry.New()
	s := NewScheduler(SchedulerConfig{Workers: 2, QueueBound: 8, Telemetry: tel})
	defer s.Close()

	w := families.GLower(1, 1, 1)
	const chaseJobs = 3
	tickets := make([]*Ticket, 0, chaseJobs)
	for i := 0; i < chaseJobs; i++ {
		spec := chaseSpec(fmt.Sprintf("job-%d", i), w.Database, w.Sigma, chase.Options{})
		spec.Meta = JobMeta{Tenant: "acme", Priority: PriorityHigh}
		tk, err := s.SubmitChase(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	fail, err := s.Submit(context.Background(), Job{Name: "boom", Run: func(context.Context) (any, error) {
		return nil, errors.New("boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()

	wantAtoms := uint64(0)
	wantRounds := uint64(0)
	for _, tk := range tickets {
		r := tk.Wait()
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		st := r.Value.(*chase.Result).Stats
		wantAtoms += uint64(st.Atoms - st.InitialAtoms)
		wantRounds += uint64(st.Rounds)
	}
	if r := fail.Wait(); r.Err == nil {
		t.Fatal("failing job reported no error")
	}

	snap := tel.Registry.Snapshot()
	if got, _ := snap.GetSeries("scheduler_jobs_admitted_total", "high", "acme"); got != chaseJobs {
		t.Fatalf("admitted{high,acme} = %v, want %d", got, chaseJobs)
	}
	if got, _ := snap.GetSeries("scheduler_jobs_admitted_total", "normal", "anon"); got != 1 {
		t.Fatalf("admitted{normal,anon} = %v, want 1", got)
	}
	if got, _ := snap.GetSeries("scheduler_jobs_completed_total", "succeeded"); got != chaseJobs {
		t.Fatalf("completed{succeeded} = %v, want %d", got, chaseJobs)
	}
	if got, _ := snap.GetSeries("scheduler_jobs_completed_total", "failed"); got != 1 {
		t.Fatalf("completed{failed} = %v, want 1", got)
	}
	if got, _ := snap.Get("scheduler_queue_depth"); got != 0 {
		t.Fatalf("queue depth after drain = %v, want 0", got)
	}
	if got, _ := snap.Get("chase_atoms_derived_total"); got != float64(wantAtoms) {
		t.Fatalf("chase_atoms_derived_total = %v, want %d", got, wantAtoms)
	}
	if got, _ := snap.Get("chase_rounds_total"); got != float64(wantRounds) {
		t.Fatalf("chase_rounds_total = %v, want %d", got, wantRounds)
	}
	if got, _ := snap.Get("chase_triggers_fired_total"); got <= 0 {
		t.Fatalf("chase_triggers_fired_total = %v, want > 0", got)
	}
	// Every admitted job waited in the queue measurably (>= 0s lands in
	// some bucket): the per-lane histograms hold one observation per job.
	for _, f := range snap.Families {
		if f.Name != "scheduler_queue_wait_seconds" {
			continue
		}
		total := uint64(0)
		for _, sr := range f.Series {
			total += sr.Hist.Count
		}
		if total != chaseJobs+1 {
			t.Fatalf("queue-wait observations = %d, want %d", total, chaseJobs+1)
		}
	}
}

// TestSchedulerTelemetryTrace pins one traced job's span sequence:
// admit → queue → sampled rounds → compile → chase → run, in that
// order, all under the job's index.
func TestSchedulerTelemetryTrace(t *testing.T) {
	tel := telemetry.New()
	tel.Trace = telemetry.NewTraceSink()
	base := time.Unix(42, 0)
	tel.Trace.SetClock(func() time.Time { return base })
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 1, Telemetry: tel})
	defer s.Close()

	db := parser.MustParseDatabase(`e(a, b).`)
	sigma := parser.MustParseRules(`e(X, Y) -> ∃Z e(Y, Z).`)
	tk, err := s.SubmitChase(context.Background(),
		chaseSpec("walk", db, sigma, chase.Options{MaxRounds: 5, Compile: compile.NewCache(4)}))
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	if tk.Trace() == nil {
		t.Fatal("traced scheduler left the ticket without a trace handle")
	}

	var spans []string
	for _, ev := range tel.Trace.Events() {
		if ev.Index != tk.Index() {
			t.Fatalf("event for foreign index: %+v", ev)
		}
		if ev.Job != "walk" {
			t.Fatalf("event for foreign job: %+v", ev)
		}
		spans = append(spans, ev.Span)
	}
	// 5 rounds sample at the powers of two: 1, 2, 4.
	want := []string{"admit", "queue", "round", "round", "round", "compile", "chase", "run"}
	if len(spans) != len(want) {
		t.Fatalf("spans = %v, want %v", spans, want)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d = %q, want %q (all %v)", i, spans[i], want[i], spans)
		}
	}
}

// TestTicketProgressSentinel is the regression test for the nil-channel
// trap: a non-chase ticket's Progress used to return nil, and a caller
// ranging (or selecting) on it blocked forever. It now returns a shared
// already-closed channel: ranging falls through immediately, and a
// receive yields ok=false.
func TestTicketProgressSentinel(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 1})
	defer s.Close()
	tk, err := s.Submit(context.Background(), Job{Name: "plain", Run: func(context.Context) (any, error) {
		return 1, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ch := tk.Progress()
	if ch == nil {
		t.Fatal("Progress() returned nil")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch { // must fall through immediately, even pre-completion
			t.Error("sentinel stream delivered a value")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ranging over a non-chase Progress stream blocked")
	}
	if _, ok := <-ch; ok {
		t.Fatal("sentinel receive reported ok")
	}
	if r := tk.Wait(); r.Err != nil || r.Value != 1 {
		t.Fatalf("result %+v", r)
	}
	// An untraced ticket's Trace is nil and still safe to record on.
	tk.Trace().Event("noop")
}

// TestOutcomeClassification pins the completion counter's label rule.
func TestOutcomeClassification(t *testing.T) {
	cases := []struct {
		r    JobResult
		want string
	}{
		{JobResult{}, "succeeded"},
		{JobResult{Err: errors.New("x")}, "failed"},
		{JobResult{Err: errors.New("x"), TimedOut: true}, "timeout"},
		{JobResult{Err: errors.New("x"), Canceled: true}, "canceled"},
		{JobResult{TimedOut: true}, "succeeded"}, // truncated-but-delivered runs succeed
	}
	for _, c := range cases {
		if got := outcomeOf(c.r); got != c.want {
			t.Fatalf("outcomeOf(%+v) = %q, want %q", c.r, got, c.want)
		}
	}
	if tenantLabel("") != "anon" || tenantLabel("acme") != "acme" {
		t.Fatal("tenant labeling broken")
	}
	for n, want := range map[int]bool{0: false, 1: true, 2: true, 3: false, 4: true, 6: false, 8: true} {
		if sampledRound(n) != want {
			t.Fatalf("sampledRound(%d) = %v", n, !want)
		}
	}
}

// TestChaseObserverRemainder: a run whose budget stops it before any
// round boundary still bills its full final stats through ObserveDone.
func TestChaseObserverRemainder(t *testing.T) {
	tel := telemetry.New()
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 1, Telemetry: tel})
	defer s.Close()
	w := families.GLower(1, 1, 1)
	tk, err := s.SubmitChase(context.Background(), chaseSpec("one", w.Database, w.Sigma, chase.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	r := tk.Wait()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	st := r.Value.(*chase.Result).Stats
	snap := tel.Registry.Snapshot()
	if got, _ := snap.Get("chase_atoms_derived_total"); got != float64(st.Atoms-st.InitialAtoms) {
		t.Fatalf("derived total = %v, want %d", got, st.Atoms-st.InitialAtoms)
	}
}
