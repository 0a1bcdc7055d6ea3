package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A Cancel landing after the job has completed is a no-op: it never
// poisons the ticket's Done delivery, never flips the delivered result
// to Canceled, and stays idempotent under concurrent hammering.
func TestTicketCancelAfterCompletionNoop(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()

	tk, err := s.Submit(context.Background(), Job{Name: "done-first", Run: func(context.Context) (any, error) {
		return 42, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	first := tk.Wait()
	if first.Err != nil || first.Canceled || first.Value != 42 {
		t.Fatalf("result before cancel = %+v", first)
	}

	// Hammer Cancel from several goroutines after completion.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk.Cancel()
		}()
	}
	wg.Wait()

	again := tk.Wait()
	if again != first {
		t.Fatalf("post-cancel Wait changed the result: %+v -> %+v", first, again)
	}
	// The progress stream stays a cleanly-closed channel.
	if _, ok := <-tk.Progress(); ok {
		t.Fatal("progress stream delivered after completion")
	}
}

// A Cancel racing the job's own completion still delivers exactly one
// result on Done — the buffered send is never lost or duplicated
// whichever side wins. Run with -race.
func TestTicketCancelCompletionRace(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4})
	defer s.Close()

	for i := 0; i < 50; i++ {
		tk, err := s.Submit(context.Background(), Job{Name: fmt.Sprintf("racer-%d", i), Run: func(ctx context.Context) (any, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
				return "ok", nil
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		go tk.Cancel()
		select {
		case r := <-tk.done:
			// Either outcome is legal; a lost delivery is not.
			if r.Err != nil && !r.Canceled {
				t.Fatalf("non-cancellation error: %+v", r)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Done delivery lost after cancel/completion race")
		}
		tk.Cancel() // and once more, after delivery
	}
}

// Submits parked on a full queue when Close begins must all fail
// ErrSchedulerClosed — deterministically, even when Close races freshly
// freed slots (the parked Submit used to be able to win the slot and be
// admitted after shutdown began). Run with -race.
func TestSchedulerCloseWakesParkedSubmits(t *testing.T) {
	for round := 0; round < 20; round++ {
		const bound = 1
		g := newGate(8)
		s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: bound})

		// Pin the worker, fill the queue.
		running, err := s.Submit(context.Background(), g.job("running"))
		if err != nil {
			t.Fatal(err)
		}
		g.waitStarted(t, 1)
		queued, err := s.Submit(context.Background(), g.job("queued"))
		if err != nil {
			t.Fatal(err)
		}

		// Park a crowd of Submits on the bound.
		const parked = 4
		errs := make(chan error, parked)
		var ready sync.WaitGroup
		for i := 0; i < parked; i++ {
			ready.Add(1)
			go func(i int) {
				ready.Done()
				_, err := s.Submit(context.Background(), g.job(fmt.Sprintf("parked-%d", i)))
				errs <- err
			}(i)
		}
		ready.Wait()

		// Begin Close, then open the gate: slots free up just after the
		// closing signal lands, so every parked Submit races a freshly
		// freed slot against the shutdown — the interleaving that used to
		// admit one of them.
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		<-s.closing // Close has set the flag; nothing may be admitted now
		g.release <- struct{}{}
		close(g.release)

		for i := 0; i < parked; i++ {
			if err := <-errs; !errors.Is(err, ErrSchedulerClosed) {
				t.Fatalf("parked submit err = %v, want ErrSchedulerClosed", err)
			}
		}
		<-closed
		// The two admitted jobs still ran to completion.
		if r := running.Wait(); r.Err != nil {
			t.Fatalf("running job: %+v", r)
		}
		if r := queued.Wait(); r.Err != nil {
			t.Fatalf("queued job: %+v", r)
		}
	}
}

// Close racing Submits never hangs: every Submit either lands (and its
// result is delivered by the time Close returns) or fails typed with
// ErrSchedulerClosed. Run with -race.
func TestSchedulerCloseRacingSubmit(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, QueueBound: 2})

	var wg sync.WaitGroup
	var admitted atomic.Int64
	var mu sync.Mutex
	tickets := make([]*Ticket, 0, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				tk, err := s.Submit(context.Background(), Job{Name: fmt.Sprintf("d-%d-%d", i, j), Run: func(context.Context) (any, error) {
					return nil, nil
				}})
				switch {
				case err == nil:
					admitted.Add(1)
					mu.Lock()
					tickets = append(tickets, tk)
					mu.Unlock()
				case !errors.Is(err, ErrSchedulerClosed):
					t.Errorf("submit err = %v", err)
				}
			}
		}(i)
	}
	for admitted.Load() == 0 {
		goruntime.Gosched()
	}
	done := make(chan struct{})
	go func() {
		s.Close()
		s.Close() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung against racing Submits")
	}
	wg.Wait()

	// Every admitted ticket's result was delivered before Close
	// returned, and a late Submit fails typed instead of hanging.
	for _, tk := range tickets {
		select {
		case r := <-tk.done:
			if r.Err != nil {
				t.Fatalf("admitted job failed: %+v", r)
			}
		default:
			t.Fatalf("admitted job %s undelivered after Close", tk.job.Name)
		}
	}
	if _, err := s.Submit(context.Background(), Job{Name: "late", Run: func(context.Context) (any, error) { return nil, nil }}); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("post-Close submit err = %v, want ErrSchedulerClosed", err)
	}
}
