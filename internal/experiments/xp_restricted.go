package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/chase"
	"repro/internal/families"
	rt "repro/internal/runtime"
)

func init() {
	register(Experiment{
		ID:    "XP-RESTRICTED",
		Title: "restricted vs semi-oblivious termination gap (Conclusions)",
		Claim: "the restricted chase terminates strictly more often; its non-uniform analysis is the paper's announced future work",
		Run:   runRestrictedGap,
	})
}

func runRestrictedGap(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"class", "trials", "both finite", "both infinite*", "restricted-only finite", "semi-only finite"},
	}
	trials := 250
	if cfg.Quick {
		trials = 60
	}
	const budget = 1200
	type gen struct {
		name string
		make func(*rand.Rand) families.Workload
	}
	rcfg := families.RandomConfig{
		Predicates: 3, MaxArity: 3, Rules: 3, MaxHeadAtoms: 2,
		ExistentialProb: 0.4, RepeatProb: 0.3, SideAtoms: 1,
	}
	gens := []gen{
		{"SL", func(r *rand.Rand) families.Workload {
			s := families.RandomSimpleLinear(r, rcfg)
			return families.Workload{Sigma: s, Database: families.RandomDatabase(r, s, 3, 2)}
		}},
		{"G", func(r *rand.Rand) families.Workload {
			s := families.RandomGuarded(r, rcfg)
			return families.Workload{Sigma: s, Database: families.RandomDatabase(r, s, 3, 2)}
		}},
	}
	// The trials run as streamed jobs through one long-lived scheduler
	// shared by both generator fleets — the serving shape. The small
	// bounded queue exerts real backpressure (Submit blocks while the
	// workers drain), completions surface on cfg.Stream as they happen,
	// and Gather collates results back into submission order, so the
	// table is identical for any worker count.
	sched := rt.NewScheduler(rt.SchedulerConfig{Workers: cfg.Workers, QueueBound: 16})
	defer sched.Close()
	for _, g := range gens {
		// Workloads are generated sequentially so the RNG stream — and
		// hence the trial set — is the fixture it always was; the chase
		// pairs then run as independent scheduler jobs, one per trial.
		rng := rand.New(rand.NewSource(109))
		var workloads []families.Workload
		for trial := 0; trial < trials; trial++ {
			w := g.make(rng)
			if w.Sigma.Len() == 0 || w.Database.Len() == 0 {
				continue
			}
			workloads = append(workloads, w)
		}
		// Only a streaming run watches completions. Observers attach at
		// submission time, one goroutine per ticket, so events surface as
		// jobs finish even while the submitting goroutine is parked on the
		// queue bound — not in a burst once submission ends.
		var streamWG sync.WaitGroup
		var streamMu sync.Mutex
		streamed := 0
		watch := func(tk *rt.Ticket) {
			if cfg.Stream == nil {
				return
			}
			streamWG.Add(1)
			go func() {
				defer streamWG.Done()
				r := tk.Wait()
				streamMu.Lock()
				streamed++
				fmt.Fprintf(cfg.Stream, "XP-RESTRICTED: %s done (%d/%d)\n", r.Name, streamed, len(workloads))
				streamMu.Unlock()
			}()
		}
		tickets := make([]*rt.Ticket, len(workloads))
		for i, w := range workloads {
			w := w
			ticket, err := sched.Submit(context.Background(), rt.Job{
				Name: fmt.Sprintf("%s-trial-%d", g.name, i),
				Run: func(context.Context) (any, error) {
					// Both variant runs share one Σ, so with a compiler
					// attached the second fetch (and any rerun of the
					// sweep in this process) hits the cache.
					semi := chase.Run(w.Database, w.Sigma, chase.Options{MaxAtoms: budget, Compile: cfg.Compiler})
					restr := chase.Run(w.Database, w.Sigma, chase.Options{Variant: chase.Restricted, MaxAtoms: budget, Compile: cfg.Compiler})
					return [2]bool{semi.Terminated, restr.Terminated}, nil
				},
			})
			if err != nil {
				return nil, err
			}
			tickets[i] = ticket
			watch(ticket)
		}
		results := rt.Gather(tickets)
		streamWG.Wait() // flush this fleet's events before the next gen's
		var bothF, bothI, restrictedOnly, semiOnly int
		for _, r := range results {
			if r.Err != nil {
				return nil, r.Err
			}
			term := r.Value.([2]bool)
			switch {
			case term[0] && term[1]:
				bothF++
			case !term[0] && !term[1]:
				bothI++
			case term[1]:
				restrictedOnly++
			default:
				semiOnly++
			}
		}
		t.AddRow(g.name, len(workloads), bothF, bothI, restrictedOnly, semiOnly)
	}
	t.Note("*budget-limited: 'infinite' means the %d-atom budget was exceeded", budget)
	t.Note("semi-only finite should be 0: a terminating semi-oblivious chase bounds every restricted derivation")
	return t, nil
}
