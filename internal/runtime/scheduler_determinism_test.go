package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/families"
)

var errFleetProbe = errors.New("fleet probe failure")

// The streaming regression contract: a fleet run through the Scheduler —
// submitted incrementally against a small bounded queue, collated by
// Gather — yields exactly what a direct chase.Run per job yields
// (termination, Stats, CanonicalKey), and its failing probe's error, for
// all three chase variants at 1 and 4 workers. The workers' pooled
// scratches and the scheduler's engine wiring must be invisible.
func TestSchedulerFleetMatchesDirectRun(t *testing.T) {
	rcfg := families.RandomConfig{
		Predicates: 3, MaxArity: 3, Rules: 3, MaxHeadAtoms: 2,
		ExistentialProb: 0.4, RepeatProb: 0.3, SideAtoms: 1,
	}
	rng := rand.New(rand.NewSource(331))
	var workloads []families.Workload
	for len(workloads) < 10 {
		s := families.RandomGuarded(rng, rcfg)
		w := families.Workload{Sigma: s, Database: families.RandomDatabase(rng, s, 3, 2)}
		if w.Sigma.Len() == 0 || w.Database.Len() == 0 {
			continue
		}
		workloads = append(workloads, w)
	}
	variants := []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted}
	const budget = 400 // truncates the non-terminating workloads mid-run

	for _, v := range variants {
		opts := chase.Options{Variant: v, MaxAtoms: budget}
		direct := make([]*chase.Result, len(workloads))
		for i, w := range workloads {
			direct[i] = chase.Run(w.Database, w.Sigma, opts)
		}
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%v/w%d", v, workers)
			s := NewScheduler(SchedulerConfig{Workers: workers, QueueBound: 2})
			// The fleet mixes chase jobs with a failing probe so error
			// propagation is compared too; Submit blocks at the bound.
			var tickets []*Ticket
			for i, w := range workloads {
				tk, err := s.SubmitChase(context.Background(), chaseSpec(fmt.Sprintf("%v-%d", v, i), w.Database, w.Sigma, opts))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				tickets = append(tickets, tk)
			}
			probe, err := s.Submit(context.Background(), Job{Name: "probe", Run: func(context.Context) (any, error) {
				return nil, errFleetProbe
			}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			streamed := Gather(append(tickets, probe))
			s.Close()

			for i, g := range streamed {
				if g.Index != i {
					t.Fatalf("%s: result %d collated under index %d", name, i, g.Index)
				}
				if i == len(workloads) {
					if g.Name != "probe" || !errors.Is(g.Err, errFleetProbe) || g.Value != nil {
						t.Fatalf("%s: probe result %+v, want its error", name, g)
					}
					continue
				}
				if g.Err != nil {
					t.Fatalf("%s: job %s: %v", name, g.Name, g.Err)
				}
				want, got := direct[i], g.Value.(*chase.Result)
				if want.Terminated != got.Terminated {
					t.Fatalf("%s: job %s terminated %v (direct) vs %v (scheduled)",
						name, g.Name, want.Terminated, got.Terminated)
				}
				if want.Stats != got.Stats {
					t.Fatalf("%s: job %s stats diverge:\ndirect    %+v\nscheduled %+v",
						name, g.Name, want.Stats, got.Stats)
				}
				if wk, gk := want.Instance.CanonicalKey(), got.Instance.CanonicalKey(); wk != gk {
					t.Fatalf("%s: job %s CanonicalKey diverges (%d vs %d atoms)",
						name, g.Name, want.Instance.Len(), got.Instance.Len())
				}
			}
		}
	}
}
