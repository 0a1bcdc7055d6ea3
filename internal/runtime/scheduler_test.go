package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/parser"
)

// gate blocks jobs until released; started counts jobs that entered Run.
type gate struct {
	release chan struct{}
	started chan struct{} // one send per job that began running
}

func newGate(capacity int) *gate {
	return &gate{release: make(chan struct{}), started: make(chan struct{}, capacity)}
}

func (g *gate) job(name string) Job {
	return Job{Name: name, Run: func(ctx context.Context) (any, error) {
		g.started <- struct{}{}
		select {
		case <-g.release:
			return name, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
}

// waitStarted blocks until n jobs have entered Run.
func (g *gate) waitStarted(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d jobs started", i, n)
		}
	}
}

// The backpressure invariant, deterministically: with every worker pinned
// on a running job, the queue admits exactly QueueBound more submissions;
// the next Submit waits for a slot, so under a short deadline it returns
// the context's error, and the queue length stays at the bound.
func TestSchedulerQueueBound(t *testing.T) {
	const workers, bound = 2, 3
	s := NewScheduler(SchedulerConfig{Workers: workers, QueueBound: bound})
	defer s.Close()
	if s.Workers() != workers || s.QueueBound() != bound {
		t.Fatalf("scheduler sized %d/%d, want %d/%d", s.Workers(), s.QueueBound(), workers, bound)
	}
	g := newGate(workers + bound + 1)

	var tickets []*Ticket
	for i := 0; i < workers; i++ {
		tk, err := s.Submit(context.Background(), g.job(fmt.Sprintf("running-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	g.waitStarted(t, workers) // both workers now hold a job off the queue

	for i := 0; i < bound; i++ {
		tk, err := s.Submit(context.Background(), g.job(fmt.Sprintf("queued-%d", i)))
		if err != nil {
			t.Fatalf("submission %d within the bound rejected: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if got := s.QueueLen(); got != bound {
		t.Fatalf("QueueLen = %d, want the bound %d", got, bound)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if tk, err := s.Submit(ctx, g.job("overflow")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit beyond the bound: ticket %v, err = %v, want context.DeadlineExceeded", tk, err)
	}
	if got := s.QueueLen(); got != bound {
		t.Fatalf("QueueLen = %d after the refused Submit, want the bound %d", got, bound)
	}

	close(g.release)
	for _, tk := range tickets {
		r := tk.Wait()
		if r.Err != nil || r.Value != tk.job.Name {
			t.Fatalf("%s: result %+v after release", tk.job.Name, r)
		}
	}
}

// Race/stress: concurrent Submit + Cancel against a small bounded queue,
// then Close, under -race in CI. No deadlock (the test finishes), no lost or
// duplicated results (every ticket yields exactly one result and the
// outcome tallies add up), and a sampling monitor observes the queue
// length never exceeding the bound.
func TestSchedulerStress(t *testing.T) {
	const (
		submitters   = 8
		perSubmitter = 25
		bound        = 4
		workers      = 4
	)
	s := NewScheduler(SchedulerConfig{Workers: workers, QueueBound: bound})
	defer s.Close()

	// Bounded-admission monitor, sampling concurrently with the churn. A
	// live job is queued (at most the bound — QueueLen alone would be
	// tautological, len of a channel never exceeds its capacity), claimed
	// by a worker (at most one each), or held by a Submit parked before
	// its enqueue (at most one per submitting goroutine), so the
	// scheduler's own active count must never exceed their sum; an
	// admission path that slipped jobs past the bounded queue would break
	// this.
	monitorStop := make(chan struct{})
	var monitorWG sync.WaitGroup
	var boundViolations atomic.Int64
	monitorWG.Add(1)
	go func() {
		defer monitorWG.Done()
		for {
			select {
			case <-monitorStop:
				return
			default:
				s.mu.Lock()
				active := s.active
				s.mu.Unlock()
				if s.QueueLen() > bound || active > bound+workers+submitters {
					boundViolations.Add(1)
				}
				goruntime.Gosched()
			}
		}
	}()

	var mu sync.Mutex
	var tickets []*Ticket
	var submitWG sync.WaitGroup
	var ran atomic.Int64
	for g := 0; g < submitters; g++ {
		submitWG.Add(1)
		go func(g int) {
			defer submitWG.Done()
			for i := 0; i < perSubmitter; i++ {
				name := fmt.Sprintf("s%d-j%d", g, i)
				tk, err := s.Submit(context.Background(), Job{Name: name, Run: func(ctx context.Context) (any, error) {
					ran.Add(1)
					return name, ctx.Err()
				}})
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				// Cancel a third of the jobs, concurrently with execution:
				// depending on timing the job is skipped, observes the
				// cancellation, or completes first — all legal; the result
				// must arrive either way.
				if i%3 == 0 {
					tk.Cancel()
				}
				mu.Lock()
				tickets = append(tickets, tk)
				mu.Unlock()
			}
		}(g)
	}
	submitWG.Wait()
	s.Close()
	close(monitorStop)
	monitorWG.Wait()

	if v := boundViolations.Load(); v > 0 {
		t.Fatalf("monitor observed %d samples with queue length over the bound", v)
	}
	const total = submitters * perSubmitter
	if len(tickets) != total {
		t.Fatalf("%d tickets, want %d", len(tickets), total)
	}
	// Exactly one result per ticket: Wait returns it, and the buffered
	// done channel must be empty afterwards (a second delivery would
	// still be sitting there).
	seen := make(map[string]bool, total)
	completed, canceled := 0, 0
	for _, tk := range tickets {
		select {
		case r := <-tk.done:
			// Close guarantees delivery already happened: the result must
			// be immediately available, not produced later.
			tk.once.Do(func() { tk.result = r })
		default:
		}
		r := tk.Wait()
		if seen[r.Name] {
			t.Fatalf("duplicate result for %s", r.Name)
		}
		seen[r.Name] = true
		switch {
		case r.Err == nil && r.Value == r.Name:
			completed++
		case r.Canceled && errors.Is(r.Err, context.Canceled):
			canceled++
		default:
			t.Fatalf("%s: unexpected result %+v", r.Name, r)
		}
		select {
		case <-tk.done:
			t.Fatalf("%s: second result delivered", tk.job.Name)
		default:
		}
	}
	if completed+canceled != total {
		t.Fatalf("outcomes %d completed + %d canceled != %d submitted", completed, canceled, total)
	}
	if int(ran.Load()) != completed+canceled-skippedCount(tickets) {
		// ran counts jobs whose Run body executed; skipped jobs never ran.
		t.Fatalf("ran %d jobs, completed %d, canceled %d, skipped %d",
			ran.Load(), completed, canceled, skippedCount(tickets))
	}
}

func skippedCount(tickets []*Ticket) int {
	// Skipped jobs never entered Run, so they carry no value; a job that
	// ran and observed its cancellation still returned its name.
	n := 0
	for _, tk := range tickets {
		r := tk.Wait()
		if r.Canceled && r.Value == nil {
			n++
		}
	}
	return n
}

// A Submit blocked on a full queue must fail with ErrSchedulerClosed when
// the scheduler closes, and Close must still run every admitted job.
func TestSchedulerBlockedSubmitUnblocksOnClose(t *testing.T) {
	const workers, bound = 1, 1
	s := NewScheduler(SchedulerConfig{Workers: workers, QueueBound: bound})
	g := newGate(workers + bound + 1)

	running, err := s.Submit(context.Background(), g.job("running"))
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t, 1)
	queued, err := s.Submit(context.Background(), g.job("queued"))
	if err != nil {
		t.Fatal(err)
	}

	blockedErr := make(chan error)
	go func() {
		_, err := s.Submit(context.Background(), g.job("blocked"))
		blockedErr <- err
	}()
	closed := make(chan struct{})
	go func() {
		// Give the blocked Submit a moment to park on the full queue, then
		// close. (If it has not parked yet, it still observes the closed
		// flag — either way it must error, not hang.)
		time.Sleep(10 * time.Millisecond)
		s.Close()
		close(closed)
	}()
	if err := <-blockedErr; !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("blocked Submit: err = %v, want ErrSchedulerClosed", err)
	}
	close(g.release) // let the admitted jobs finish so Close can return
	<-closed

	for _, tk := range []*Ticket{running, queued} {
		if r := tk.Wait(); r.Err != nil {
			t.Fatalf("%s: %+v — Close must run admitted jobs to completion", tk.job.Name, r)
		}
	}
	if _, err := s.Submit(context.Background(), g.job("late")); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrSchedulerClosed", err)
	}
	s.Close() // idempotent
}

// A Submit parked on a full queue must return ctx.Err() when its context
// is cancelled — a dead request never leaks a blocked submitter — while a
// Submit with an already-cancelled context and a free slot is still
// admitted (and skipped by its worker as Canceled).
func TestSchedulerBlockedSubmitHonorsContext(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 1})
	defer s.Close()
	g := newGate(4)

	running, err := s.Submit(context.Background(), g.job("running"))
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t, 1)
	queued, err := s.Submit(context.Background(), g.job("queued"))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	blockedErr := make(chan error)
	go func() {
		_, err := s.Submit(ctx, g.job("parked"))
		blockedErr <- err
	}()
	select {
	case err := <-blockedErr:
		t.Fatalf("Submit returned %v before cancellation despite the full queue", err)
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-blockedErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parked Submit: err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked Submit ignored its context's cancellation")
	}

	// An already-cancelled context with queue room: admitted, then skipped.
	close(g.release)
	running.Wait() // empty the queue so the next Submit finds a free slot
	queued.Wait()
	tk, err := s.Submit(ctx, g.job("doomed"))
	if err != nil {
		t.Fatalf("Submit with room must admit a cancelled-context job, got %v", err)
	}
	if r := tk.Wait(); !r.Canceled || !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("cancelled-context job: result %+v, want Canceled", r)
	}
}

// Cancelling a ticket before a worker claims it skips the job and reports
// Canceled; the result is still delivered.
func TestSchedulerCancelBeforeStart(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 2})
	defer s.Close()
	g := newGate(4)

	if _, err := s.Submit(context.Background(), g.job("running")); err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t, 1)
	var ran atomic.Bool
	tk, err := s.Submit(context.Background(), Job{Name: "doomed", Run: func(context.Context) (any, error) {
		ran.Store(true)
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	tk.Cancel()
	close(g.release)
	r := tk.Wait()
	if !r.Canceled || !errors.Is(r.Err, context.Canceled) || ran.Load() {
		t.Fatalf("pre-start cancel: result %+v, ran=%v", r, ran.Load())
	}
}

// roundCounter is a caller's chase.Observer that counts round boundaries.
type roundCounter struct{ rounds int }

func (c *roundCounter) ObserveRound(chase.Stats)    { c.rounds++ }
func (*roundCounter) ObserveDone(chase.Stats, bool) {}

// SubmitChase tickets stream round-level progress: a multi-round run
// delivers at least one event (latest-wins may collapse the rest), the
// stream is closed before the result lands, and the final observed event
// is consistent with the result's statistics. The stream joins the
// caller's own Observer, which still sees every round.
func TestSchedulerChaseProgressStream(t *testing.T) {
	db := parser.MustParseDatabase(`e(a, b).`)
	sigma := parser.MustParseRules(`e(X, Y) -> ∃Z e(Y, Z).`)
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 1})
	defer s.Close()

	caller := &roundCounter{}
	tk, err := s.SubmitChase(context.Background(), chaseSpec("walk", db, sigma, chase.Options{MaxRounds: 40, Observer: caller}))
	if err != nil {
		t.Fatal(err)
	}
	var events []chase.Stats
	progress := tk.Progress()
	var result JobResult
	for progress != nil || result.Value == nil {
		select {
		case st, ok := <-progress:
			if !ok {
				progress = nil
				continue
			}
			events = append(events, st)
		case result = <-tk.done:
			if result.Value == nil {
				t.Fatalf("nil result value: %+v", result)
			}
		}
	}
	if len(events) == 0 {
		t.Fatal("no progress events from a 40-round run")
	}
	res := result.Value.(*chase.Result)
	if res.Terminated {
		t.Fatal("round-capped walk reported termination")
	}
	last := events[len(events)-1]
	if last.Rounds > res.Stats.Rounds || last.Atoms > res.Stats.Atoms {
		t.Fatalf("last event %+v overshoots final stats %+v", last, res.Stats)
	}
	if caller.rounds != res.Stats.Rounds {
		t.Fatalf("caller's observer saw %d rounds, the run had %d", caller.rounds, res.Stats.Rounds)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Rounds <= events[i-1].Rounds {
			t.Fatalf("progress events out of order: %+v then %+v", events[i-1], events[i])
		}
	}
}

// A panicking job fails its own ticket instead of unwinding a worker
// goroutine: the panic value lands in the result's Err and the scheduler
// keeps serving subsequent jobs.
func TestSchedulerContainsJobPanic(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 2})
	defer s.Close()
	bad, err := s.Submit(context.Background(), Job{Name: "bad", Run: func(context.Context) (any, error) {
		panic("job boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(context.Background(), Job{Name: "good", Run: func(context.Context) (any, error) {
		return 7, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r := bad.Wait(); r.Err == nil || !strings.Contains(r.Err.Error(), "job boom") || r.Canceled || r.TimedOut {
		t.Fatalf("panicking job: result %+v, want its panic as Err", r)
	}
	if r := good.Wait(); r.Err != nil || r.Value != 7 {
		t.Fatalf("job after a panic: %+v — the worker must keep serving", r)
	}
}

// A long-lived scheduler serves successive fleets: an idle scheduler is
// a fleet boundary, not an end of life, and Submit keeps working after
// every earlier job has finished.
func TestSchedulerServesSuccessiveFleets(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, QueueBound: 2})
	defer s.Close()
	for fleet := 0; fleet < 3; fleet++ {
		var tickets []*Ticket
		for i := 0; i < 5; i++ {
			tk, err := s.Submit(context.Background(), Job{Name: fmt.Sprintf("f%d-j%d", fleet, i), Run: func(context.Context) (any, error) {
				return fleet, nil
			}})
			if err != nil {
				t.Fatalf("fleet %d: %v", fleet, err)
			}
			tickets = append(tickets, tk)
		}
		for _, tk := range tickets {
			if r := tk.Wait(); r.Err != nil || r.Value != fleet {
				t.Fatalf("fleet %d: %+v", fleet, r)
			}
		}
	}
}

// Ticket indices are unique and monotone in admission order even under
// concurrent submission.
func TestSchedulerTicketIndicesUnique(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4, QueueBound: 8})
	defer s.Close()
	const n = 200
	indices := make(chan int, n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				tk, err := s.Submit(context.Background(), Job{Name: "j", Run: func(context.Context) (any, error) { return nil, nil }})
				if err != nil {
					t.Error(err)
					return
				}
				indices <- tk.index
			}
		}()
	}
	wg.Wait()
	close(indices)
	seen := make(map[int]bool)
	for i := range indices {
		if seen[i] {
			t.Fatalf("duplicate ticket index %d", i)
		}
		seen[i] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct indices, want %d", len(seen), n)
	}
}

// Gather collates a single submitter's fleet back into submission order:
// on a fresh scheduler each result's Index is its position, whatever
// order the workers finished in.
func TestGatherResultsInSubmissionOrder(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4, QueueBound: 8})
	defer s.Close()
	const n = 40
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := s.Submit(context.Background(), Job{Name: fmt.Sprintf("job-%d", i), Run: func(context.Context) (any, error) {
			return i * i, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	results := Gather(tickets)
	if len(results) != n {
		t.Fatalf("%d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Index != i || r.Name != fmt.Sprintf("job-%d", i) || r.Value != i*i || r.Err != nil {
			t.Fatalf("result %d out of order or wrong: %+v", i, r)
		}
	}
}

// A job that outlives its own wall budget is TimedOut; one that absorbs
// the expiry and still returns a value keeps it.
func TestSchedulerWallBudgetTimesOut(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 1})
	defer s.Close()
	tk, err := s.Submit(context.Background(), Job{Name: "slow", Wall: 10 * time.Millisecond, Run: func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return "stopped", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); !r.TimedOut || r.Canceled || r.Err != nil || r.Value != "stopped" {
		t.Fatalf("result = %+v, want timed-out with value", r)
	}
}

// A deadline on the submission context is the caller's event: a running
// job that surfaces it must be classified Canceled (like the queued jobs
// the same expiry skips), never TimedOut.
func TestSchedulerParentDeadlineClassifiedCanceled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 1})
	defer s.Close()
	tk, err := s.Submit(ctx, Job{Name: "obedient", Run: func(jctx context.Context) (any, error) {
		<-jctx.Done()
		return nil, jctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r := tk.Wait(); !r.Canceled || r.TimedOut || !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("result = %+v, want Canceled by the deadline and not TimedOut", r)
	}
}

// Jobs still queued when their submission context is cancelled are
// skipped and reported Canceled, each with the context's error.
func TestSchedulerCancellationSkipsQueuedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const queued = 5
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: queued + 1})
	defer s.Close()
	release := make(chan struct{})
	first, err := s.Submit(ctx, Job{Name: "canceller", Run: func(context.Context) (any, error) {
		<-release
		cancel()
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	tickets := make([]*Ticket, queued)
	for i := range tickets {
		if tickets[i], err = s.Submit(ctx, Job{Name: "queued", Run: func(context.Context) (any, error) {
			ran.Add(1)
			return nil, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if r := first.Wait(); r.Err != nil || r.Canceled {
		t.Fatalf("canceller: %+v, want success", r)
	}
	for _, r := range Gather(tickets) {
		if !r.Canceled || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("queued job result %+v, want cancelled", r)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d queued jobs ran after the cancellation", n)
	}
}
