package experiments

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/families"
)

func init() {
	register(Experiment{
		ID:    "XP-QOS",
		Title: "anytime serving: completeness vs round budget",
		Claim: "a k-round anytime answer is a whole-round prefix; completeness climbs to 100% at the learned bound",
		Run:   runQoS,
	})
}

// runQoS quantifies the quality-vs-latency trade the anytime tier
// offers: for each workload, a reference chase runs to termination (the
// learn-mode profile, recording the round bound R), then the same chase
// is re-served under round budgets k = ¼R, ½R, ¾R, R with round-granular
// truncation — exactly what an anytime deadline produces, in its
// deterministic round-quota form. Completeness is the truncated
// instance's atom count over the fixpoint's. The table carries counts
// only — no wall times — so it is golden-stable.
func runQoS(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"workload", "budget k", "rounds", "atoms", "complete %", "terminated"},
	}
	workloads := []families.Workload{
		families.Prop45(24),
		families.SLLower(2, 2, 2),
		families.University(3, 7),
	}
	if cfg.Quick {
		workloads = []families.Workload{
			families.Prop45(10),
			families.University(1, 7),
		}
	}
	fracs := []struct{ num, den int }{{1, 4}, {1, 2}, {3, 4}, {1, 1}}
	for _, w := range workloads {
		ref := chase.Run(w.Database, w.Sigma, chase.Options{MaxAtoms: 500000, Compile: cfg.Compiler})
		if !ref.Terminated {
			t.Note("%s: reference chase exceeded its budget, skipping", w.Name)
			continue
		}
		full, rounds := ref.Instance.Len(), ref.Stats.Rounds
		for _, f := range fracs {
			k := (rounds*f.num + f.den - 1) / f.den
			opts := chase.Options{
				MaxAtoms:               500000,
				MaxRounds:              k,
				RoundGranularInterrupt: true,
				Compile:                cfg.Compiler,
			}
			res := chase.Run(w.Database, w.Sigma, opts)
			t.AddRow(w.Name,
				fmt.Sprintf("%d/%d", k, rounds),
				res.Stats.Rounds,
				res.Instance.Len(),
				fmt.Sprintf("%.1f", 100*float64(res.Instance.Len())/float64(full)),
				res.Terminated)
		}
	}
	return t, nil
}
