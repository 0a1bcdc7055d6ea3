package runtime

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// gatedScheduler starts a scheduler whose single worker is parked on a
// gate job, so every subsequent Submit queues up and the dequeue order
// becomes observable (and deterministic) once the gate opens.
func gatedScheduler(t *testing.T, bound int) (s *Scheduler, open func()) {
	t.Helper()
	s = NewScheduler(SchedulerConfig{Workers: 1, QueueBound: bound})
	gate := make(chan struct{})
	if _, err := s.Submit(context.Background(), Job{Name: "gate", Run: func(context.Context) (any, error) {
		<-gate
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	return s, func() { close(gate) }
}

// tagJob returns a job that appends its tag to seq (under mu) when run.
func tagJob(mu *sync.Mutex, seq *[]string, meta JobMeta, tag string) Job {
	return Job{Name: tag, Meta: meta, Run: func(context.Context) (any, error) {
		mu.Lock()
		*seq = append(*seq, tag)
		mu.Unlock()
		return nil, nil
	}}
}

// TestTenantFairAlternation: two tenants with equal-priority backlogs
// drain alternately. The whole backlog is queued behind a gate before
// the single worker pops anything, so the dequeue order is exactly the
// fair queue's rotation — deterministic, not approximate.
func TestTenantFairAlternation(t *testing.T) {
	s, open := gatedScheduler(t, 64)
	defer s.Close()
	var (
		mu  sync.Mutex
		seq []string
	)
	const perTenant = 8
	// Tenant a's whole backlog is submitted before tenant b's first job —
	// the worst case for b under plain FIFO.
	for i := 0; i < perTenant; i++ {
		if _, err := s.Submit(context.Background(), tagJob(&mu, &seq, JobMeta{Tenant: "a"}, "a")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < perTenant; i++ {
		if _, err := s.Submit(context.Background(), tagJob(&mu, &seq, JobMeta{Tenant: "b"}, "b")); err != nil {
			t.Fatal(err)
		}
	}
	open()
	s.Close()
	if len(seq) != 2*perTenant {
		t.Fatalf("ran %d jobs, want %d", len(seq), 2*perTenant)
	}
	for i, tag := range seq {
		want := "a"
		if i%2 == 1 {
			want = "b"
		}
		if tag != want {
			t.Fatalf("dequeue order %v: position %d is %s, want %s (tenants must alternate)", seq, i, tag, want)
		}
	}
}

// TestPriorityLanes: lanes dequeue strictly high before normal before
// low, FIFO within a lane, regardless of submission interleaving.
func TestPriorityLanes(t *testing.T) {
	s, open := gatedScheduler(t, 64)
	defer s.Close()
	var (
		mu  sync.Mutex
		seq []string
	)
	submissions := []struct {
		prio Priority
		tag  string
	}{
		{PriorityLow, "low1"}, {PriorityNormal, "norm1"}, {PriorityHigh, "high1"},
		{PriorityNormal, "norm2"}, {PriorityLow, "low2"}, {PriorityHigh, "high2"},
	}
	for _, sub := range submissions {
		if _, err := s.Submit(context.Background(), tagJob(&mu, &seq, JobMeta{Priority: sub.prio}, sub.tag)); err != nil {
			t.Fatal(err)
		}
	}
	open()
	s.Close()
	want := []string{"high1", "high2", "norm1", "norm2", "low1", "low2"}
	if fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Fatalf("dequeue order %v, want %v", seq, want)
	}
}

// TestPriorityString pins the lane names (the service layer parses and
// prints them).
func TestPriorityString(t *testing.T) {
	for p, want := range map[Priority]string{
		PriorityHigh: "high", PriorityNormal: "normal", PriorityLow: "low",
		Priority(7): "high", Priority(-3): "low",
	} {
		if got := p.String(); got != want {
			t.Fatalf("Priority(%d).String() = %q, want %q", p, got, want)
		}
	}
}

// TestTenantStarvationBound: a noisy tenant keeps a deep backlog queued
// while a quiet tenant submits one job at a time. Once a quiet job is
// queued behind the noisy backlog, at most one noisy job leaves the queue
// before it — the starvation bound for one competing tenant — where plain
// FIFO would run the whole backlog first. The single worker reports each
// job it starts and then holds it until the test releases it, so every
// submission lands while the worker holds a job, and the dequeue order,
// not the timing of starts, is what the test reads.
func TestTenantStarvationBound(t *testing.T) {
	const (
		bound     = 32
		backlog   = bound - 2 // noisy jobs kept queued
		quietJobs = 20
	)
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: bound})
	defer s.Close()
	started := make(chan string, bound+1)
	release := make(chan struct{})
	defer close(release) // frees the held and queued jobs, so Close returns
	submit := func(tenant string) {
		t.Helper()
		if _, err := s.Submit(context.Background(), Job{Name: tenant, Meta: JobMeta{Tenant: tenant}, Run: func(context.Context) (any, error) {
			started <- tenant
			<-release
			return nil, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	submit("noisy")
	<-started // the worker holds it
	queued := 0
	for i := 0; i < quietJobs; i++ {
		for ; queued < backlog; queued++ {
			submit("noisy")
		}
		submit("quiet")
		ahead := 0
		for {
			release <- struct{}{}
			if <-started == "quiet" {
				break
			}
			queued--
			ahead++
		}
		if ahead > 1 {
			t.Fatalf("quiet job %d left the queue behind %d noisy jobs, want <= 1 (starvation)", i, ahead)
		}
	}
}

// TestFairQueueSingleTenantFIFO: with one (anonymous) tenant at one
// priority the fair queue degenerates to plain FIFO — the order
// single-submitter fleets collated by Gather rest on.
func TestFairQueueSingleTenantFIFO(t *testing.T) {
	s, open := gatedScheduler(t, 64)
	defer s.Close()
	var (
		mu  sync.Mutex
		seq []string
	)
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := s.Submit(context.Background(), tagJob(&mu, &seq, JobMeta{}, fmt.Sprintf("j%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	open()
	s.Close()
	for i, tag := range seq {
		if want := fmt.Sprintf("j%02d", i); tag != want {
			t.Fatalf("position %d is %s, want %s (single-tenant order must be FIFO)", i, tag, want)
		}
	}
}

// TestFairQueueCompaction pushes a long steady backlog through one
// tenant to exercise the consumed-prefix compaction path.
func TestFairQueueCompaction(t *testing.T) {
	var q fairQueue
	mk := func(tenant string, i int) *Ticket {
		return &Ticket{job: Job{Name: fmt.Sprintf("%s-%d", tenant, i), Meta: JobMeta{Tenant: tenant}}}
	}
	next := 0
	popped := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 5; i++ {
			q.push(mk("steady", next))
			next++
		}
		for i := 0; i < 4; i++ {
			tk := q.pop()
			if want := fmt.Sprintf("steady-%d", popped); tk.job.Name != want {
				t.Fatalf("pop %d: got %s, want %s", popped, tk.job.Name, want)
			}
			popped++
		}
	}
	for q.len() > 0 {
		tk := q.pop()
		if want := fmt.Sprintf("steady-%d", popped); tk.job.Name != want {
			t.Fatalf("drain pop %d: got %s, want %s", popped, tk.job.Name, want)
		}
		popped++
	}
	if popped != next {
		t.Fatalf("popped %d of %d pushed", popped, next)
	}
}
