package checkpoint

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/families"
	"repro/internal/logic"
	"repro/internal/parser"
)

// Budgets of the randomized differential. Random guarded sets need not
// terminate; a run that hits either budget is still compared decoded
// against in-process, but not against the full re-chase.
const (
	randomRounds = 12
	randomAtoms  = 1000
)

// TestRandomDeltaDifferential checks that triggers fired before a
// checkpoint stay fired after it, over random guarded ontologies. For
// Σ-seeds 1–300 it draws RandomGuarded (default config) and a 14-fact
// database over 5 constants, chases the first half of the facts as the
// base and resumes with the rest as the delta, for all three variants.
// The base runs either to termination or is cut at MaxRounds 1–3, and
// goes through Encode/Decode. Then:
//
//   - the decoded resume equals the in-process resume byte for byte,
//     Stats and Terminated included;
//   - the in-process resume equals the full re-chase of all 14 facts:
//     equal CanonicalForm for the semi-oblivious and oblivious chases,
//     hom-equivalent for the restricted one;
//   - the same holds when the base run and the resume both use
//     NoSemiNaive, whose resumed first round re-enumerates the whole
//     checkpointed prefix.
func TestRandomDeltaDifferential(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	counts := map[string]int{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		sigma := families.RandomGuarded(rng, families.DefaultRandomConfig())
		db := families.RandomDatabase(rng, sigma, 14, 5)
		if len(sigma.TGDs) == 0 || db.Len() < 2 {
			continue
		}
		all := db.Atoms()
		base := logic.NewDatabase(all[:len(all)/2]...)
		delta := all[len(all)/2:]
		prog := &parser.Program{Database: base, Rules: sigma}
		for _, v := range variants {
			for _, naive := range []bool{false, true} {
				budget := chase.Options{Variant: v, NoSemiNaive: naive, MaxRounds: randomRounds, MaxAtoms: randomAtoms}
				full := chase.Run(db, sigma, budget)
				for _, cut := range []int{0, 1, 2, 3} {
					opts := budget
					opts.Checkpoint = true
					if cut > 0 {
						opts.MaxRounds = cut
					}
					first := chase.Run(base, sigma, opts)
					switch {
					case first.Resume == nil:
						continue // a MaxAtoms cut is dirty
					case cut == 0 && !first.Terminated:
						continue // no fixpoint within the budget
					case cut > 0 && first.Terminated:
						continue // the base ended before the cut
					}
					name := fmt.Sprintf("seed %d/%v/cut %d/naive %v", seed, v, cut, naive)
					leg := "terminated"
					if cut > 0 {
						leg = "cut"
					}
					if naive {
						leg = "naive"
					}
					counts[leg]++
					if checkRandomResume(t, name, prog, first, full, delta, budget) {
						counts["vs full"]++
					}
				}
			}
		}
	}
	t.Logf("cases: %d terminated bases, %d cut bases, %d NoSemiNaive; %d compared with the full re-chase",
		counts["terminated"], counts["cut"], counts["naive"], counts["vs full"])
	if counts["terminated"] == 0 || counts["cut"] == 0 || counts["naive"] == 0 {
		t.Fatalf("a leg ran no case: %v", counts)
	}
}

// checkRandomResume resumes first with delta in-process and from its
// decoded artifact under opts, and compares the two with each other and
// the in-process one with full, the re-chase of base plus delta. It
// reports whether both terminated, so that the last comparison ran.
func checkRandomResume(t *testing.T, name string, prog *parser.Program, first, full *chase.Result, delta []*logic.Atom, opts chase.Options) bool {
	t.Helper()
	dec := roundTrip(t, prog, first)
	inproc, err := chase.Resume(first.Instance, delta, prog.Rules, first.Resume, opts)
	if err != nil {
		t.Fatalf("%s: in-process resume: %v", name, err)
	}
	decoded, err := dec.Resume(prog.Rules, delta, opts)
	if err != nil {
		t.Fatalf("%s: decoded resume: %v", name, err)
	}
	sameInstance(t, name+": decoded vs in-process resume", decoded.Instance, inproc.Instance)
	if decoded.Stats != inproc.Stats || decoded.Terminated != inproc.Terminated {
		t.Fatalf("%s: decoded resume stats %+v (terminated %v), in-process %+v (terminated %v)",
			name, decoded.Stats, decoded.Terminated, inproc.Stats, inproc.Terminated)
	}
	if !inproc.Terminated || !full.Terminated {
		return false
	}
	if !sameChaseResult(opts.Variant, first, inproc, full) {
		t.Fatalf("%s: resume+delta differs from the full re-chase\nbase:\n%v\ndelta: %v\nresume:\n%v\nfull:\n%v",
			name, prog.Database, delta, inproc.Instance, full.Instance)
	}
	return true
}

// sameChaseResult compares a resumed result with a full re-chase: under
// canonical null names for the order-insensitive variants, up to
// homomorphic equivalence for the restricted chase.
func sameChaseResult(v chase.Variant, first, resumed, full *chase.Result) bool {
	if v == chase.Restricted {
		return homEquivalent(resumed.Instance, full.Instance)
	}
	got := chase.CanonicalForm(resumed.Instance, resumed.NullNames(first.NullNames(nil)))
	return got == chase.CanonicalForm(full.Instance, full.NullNames(nil))
}
