package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/runtime"
	"repro/internal/tgds"
)

// scenarios loads every example program under examples/dlgp — the same
// corpus the wire and CLI suites pin their guarantees on.
func scenarios(t *testing.T) map[string]*parser.Program {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "dlgp")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*parser.Program)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".dlgp") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out[strings.TrimSuffix(e.Name(), ".dlgp")] = prog
	}
	if len(out) == 0 {
		t.Fatal("no example scenarios found")
	}
	return out
}

var variants = []chase.Variant{chase.SemiOblivious, chase.Oblivious, chase.Restricted}

// allGuarded reports whether every clause carries a guard; the chase
// forest (Options.TrackForest) is defined only for guarded programs.
func allGuarded(sigma *tgds.Set) bool {
	for _, t := range sigma.TGDs {
		if !t.IsGuarded() {
			return false
		}
	}
	return true
}

// sameInstance asserts byte identity: canonical key, length, and
// insertion order of atom keys (what Seq and semi-naive windows observe).
func sameInstance(t *testing.T, what string, got, want *logic.Instance) {
	t.Helper()
	if got.CanonicalKey() != want.CanonicalKey() {
		t.Fatalf("%s: canonical keys differ:\ngot  %s\nwant %s", what, got, want)
	}
	ga, wa := got.Atoms(), want.Atoms()
	if len(ga) != len(wa) {
		t.Fatalf("%s: length %d, want %d", what, len(ga), len(wa))
	}
	for i := range ga {
		if ga[i].Key() != wa[i].Key() {
			t.Fatalf("%s: insertion order diverges at %d: %v vs %v", what, i, ga[i], wa[i])
		}
	}
}

// roundTrip pushes a result through the full artifact cycle —
// capture, encode, decode, validate — and returns the decoded side.
func roundTrip(t *testing.T, prog *parser.Program, res *chase.Result) *Checkpoint {
	t.Helper()
	cp, err := Capture(prog.Rules, res)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(prog.Rules); err != nil {
		t.Fatal(err)
	}
	if dec.Terminated != cp.Terminated || dec.Rounds != cp.Rounds || dec.Variant != cp.Variant {
		t.Fatalf("header fields changed: %+v vs %+v", dec, cp)
	}
	if dec.State.NextNullID != cp.State.NextNullID || dec.State.DeltaStart != cp.State.DeltaStart {
		t.Fatalf("resume scalars changed: %+v vs %+v", dec.State, cp.State)
	}
	sameInstance(t, "decoded snapshot", dec.Instance, res.Instance)
	return dec
}

// homEquivalent reports mutual homomorphic embeddability of the two
// instances: nulls generalize to variables (consistently per null),
// constants stay themselves, and each side must map into the other.
func homEquivalent(a, b *logic.Instance) bool {
	return homInto(a, b) && homInto(b, a)
}

func homInto(a, b *logic.Instance) bool {
	vars := make(map[int32]logic.Variable)
	body := make([]*logic.Atom, 0, a.Len())
	for _, atom := range a.Atoms() {
		args := make([]logic.Term, len(atom.Args))
		changed := false
		for i, tm := range atom.Args {
			if n, ok := tm.(*logic.Null); ok {
				id := logic.IDOf(n)
				v, seen := vars[id]
				if !seen {
					v = logic.Variable(fmt.Sprintf("H%d", id))
					vars[id] = v
				}
				args[i] = v
				changed = true
			} else {
				args[i] = tm
			}
		}
		if changed {
			body = append(body, logic.NewAtom(atom.Pred, args...))
		} else {
			body = append(body, atom)
		}
	}
	return logic.ExtendOne(body, b, logic.Substitution{}) != nil
}

// TestDifferentialResume is the acceptance harness: for every example
// scenario × all three chase variants × 1 and 4 workers,
//
//   - a terminating run checkpointed through the full artifact cycle and
//     resumed with an empty delta reproduces the original instance
//     byte-identically;
//   - a non-terminating run checkpointed at a round budget and resumed
//     for the remaining rounds is byte-identical to the longer
//     uninterrupted run (continuation property), with Stats summing
//     across the cut;
//   - resume-from-decoded-bytes is byte- and Stats-identical to resume
//     from the in-process state it encodes.
func TestDifferentialResume(t *testing.T) {
	for name, prog := range scenarios(t) {
		for _, v := range variants {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, v, workers), func(t *testing.T) {
					var exec chase.Executor
					if workers > 1 {
						exec = runtime.NewExecutor(workers)
					}
					forest := allGuarded(prog.Rules)
					opts := chase.Options{
						Variant: v, Checkpoint: true, MaxRounds: 5,
						Executor: exec, TrackForest: forest, RecordDerivation: true,
					}
					full := chase.Run(prog.Database, prog.Rules, opts)
					if full.Resume == nil {
						t.Fatal("clean stop must capture resume state")
					}
					dec := roundTrip(t, prog, full)

					ropts := chase.Options{
						Variant: v, MaxRounds: 3,
						Executor: exec, TrackForest: forest, RecordDerivation: true,
					}
					inproc, err := chase.Resume(full.Instance, nil, prog.Rules, full.Resume, ropts)
					if err != nil {
						t.Fatal(err)
					}
					decoded, err := dec.Resume(prog.Rules, nil, ropts)
					if err != nil {
						t.Fatal(err)
					}
					// Decoded-state resume ≡ in-process resume, byte for byte.
					sameInstance(t, "decoded vs in-process resume", decoded.Instance, inproc.Instance)
					if decoded.Stats != inproc.Stats {
						t.Fatalf("resume stats diverge:\ndecoded    %+v\nin-process %+v", decoded.Stats, inproc.Stats)
					}
					if decoded.Terminated != inproc.Terminated {
						t.Fatalf("Terminated = %v vs %v", decoded.Terminated, inproc.Terminated)
					}

					if full.Terminated {
						// Empty-delta resume of a fixpoint is the fixpoint.
						if !decoded.Terminated {
							t.Fatal("resumed fixpoint must terminate immediately")
						}
						sameInstance(t, "empty-delta resume", decoded.Instance, full.Instance)
					} else {
						// Continuation: checkpoint at round 5 + 3 resumed
						// rounds ≡ one uninterrupted 8-round run.
						long := chase.Run(prog.Database, prog.Rules, chase.Options{
							Variant: v, MaxRounds: 8, Executor: exec,
						})
						sameInstance(t, "continuation", decoded.Instance, long.Instance)
						if got, want := full.Stats.Rounds+decoded.Stats.Rounds, long.Stats.Rounds; got != want {
							t.Fatalf("rounds %d+%d across the cut, uninterrupted run took %d",
								full.Stats.Rounds, decoded.Stats.Rounds, want)
						}
						if got, want := full.Stats.Nulls+decoded.Stats.Nulls, long.Stats.Nulls; got != want {
							t.Fatalf("nulls %d+%d across the cut, want %d", full.Stats.Nulls, decoded.Stats.Nulls, want)
						}
						if got, want := full.Stats.TriggersFired+decoded.Stats.TriggersFired, long.Stats.TriggersFired; got != want {
							t.Fatalf("fired %d+%d across the cut, want %d", full.Stats.TriggersFired, decoded.Stats.TriggersFired, want)
						}
					}
					if forest && decoded.Forest == nil {
						t.Fatal("TrackForest lost across resume")
					}
					if decoded.Derivation != nil {
						if err := decoded.Derivation.Validate(prog.Rules, decoded.Instance, decoded.Terminated); err != nil {
							t.Fatalf("resumed derivation invalid: %v", err)
						}
					}
				})
			}
		}
	}
}

// TestDifferentialDelta is the other half of the harness: chase a prefix
// of the database, checkpoint, resume with the held-out atoms as the
// delta, and compare against the full chase of the whole database. Null
// ids are assigned in firing order, so global byte identity cannot hold;
// the semi-oblivious and oblivious chases agree exactly under canonical
// null naming (the paper's trigger-derived null identity), and the
// order-sensitive restricted chase agrees up to homomorphic equivalence.
func TestDifferentialDelta(t *testing.T) {
	for name, prog := range scenarios(t) {
		if prog.Database.Len() < 2 {
			continue
		}
		for _, v := range variants {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, v, workers), func(t *testing.T) {
					var exec chase.Executor
					if workers > 1 {
						exec = runtime.NewExecutor(workers)
					}
					all := prog.Database.Atoms()
					base := logic.NewInstance()
					for _, a := range all[:len(all)-1] {
						base.Add(a)
					}
					delta := all[len(all)-1:]

					opts := chase.Options{Variant: v, Checkpoint: true, MaxRounds: 5, Executor: exec}
					first := chase.Run(base, prog.Rules, opts)
					full := chase.Run(prog.Database, prog.Rules, chase.Options{Variant: v, MaxRounds: 8, Executor: exec})
					if !first.Terminated || !full.Terminated {
						t.Skip("delta differential needs a terminating scenario")
					}
					dec := roundTrip(t, prog, first)

					ropts := chase.Options{Variant: v, MaxRounds: 8, Executor: exec}
					inproc, err := chase.Resume(first.Instance, delta, prog.Rules, first.Resume, ropts)
					if err != nil {
						t.Fatal(err)
					}
					decoded, err := dec.Resume(prog.Rules, delta, ropts)
					if err != nil {
						t.Fatal(err)
					}
					sameInstance(t, "decoded vs in-process delta resume", decoded.Instance, inproc.Instance)
					if !inproc.Terminated {
						t.Fatal("resumed run must terminate")
					}

					if v == chase.Restricted {
						if !homEquivalent(inproc.Instance, full.Instance) {
							t.Fatalf("restricted resume not hom-equivalent to full re-chase:\n%v\nvs\n%v",
								inproc.Instance, full.Instance)
						}
						return
					}
					names := inproc.NullNames(first.NullNames(nil))
					got := chase.CanonicalForm(inproc.Instance, names)
					want := chase.CanonicalForm(full.Instance, full.NullNames(nil))
					if got != want {
						t.Fatalf("resume+delta differs from full re-chase under canonical null names\nresume:\n%s\nfull:\n%s", got, want)
					}
				})
			}
		}
	}
}

// TestPropertyEveryRound checkpoints a terminating chase at every
// intermediate round — through the full encode/decode cycle — and
// resumes each with an empty delta: all of them must converge to the
// full run's final instance byte-identically. This is the test that
// catches an off-by-one semi-naive window or checkpointed prefix.
func TestPropertyEveryRound(t *testing.T) {
	for name, prog := range scenarios(t) {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/%s", name, v), func(t *testing.T) {
				full := chase.Run(prog.Database, prog.Rules, chase.Options{Variant: v, MaxRounds: 6, Checkpoint: true})
				if !full.Terminated {
					t.Skip("property needs a terminating scenario")
				}
				for k := 1; k < full.Stats.Rounds; k++ {
					part := chase.Run(prog.Database, prog.Rules, chase.Options{Variant: v, MaxRounds: k, Checkpoint: true})
					dec := roundTrip(t, prog, part)
					res, err := dec.Resume(prog.Rules, nil, chase.Options{Variant: v})
					if err != nil {
						t.Fatalf("round %d: %v", k, err)
					}
					if !res.Terminated {
						t.Fatalf("round %d: resumed run must terminate", k)
					}
					sameInstance(t, fmt.Sprintf("resume from round %d", k), res.Instance, full.Instance)
					if got, want := part.Stats.Rounds+res.Stats.Rounds, full.Stats.Rounds; got != want {
						t.Fatalf("round %d: %d+%d rounds across the cut, want %d", k, part.Stats.Rounds, res.Stats.Rounds, want)
					}
				}
			})
		}
	}
}

// TestChainedCheckpoints re-checkpoints a resumed run and resumes again:
// checkpoint identity composes across generations.
func TestChainedCheckpoints(t *testing.T) {
	prog, err := parser.Parse(`e(a, b). e(b, c). e(c, d).
		e(X, Y) -> p(X, Y).
		p(X, Y) -> q(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	full := chase.Run(prog.Database, prog.Rules, chase.Options{Checkpoint: true})
	dec := roundTrip(t, prog, full)
	res, err := dec.Resume(prog.Rules, nil, chase.Options{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	dec2 := roundTrip(t, prog, res)
	res2, err := dec2.Resume(prog.Rules, nil, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameInstance(t, "second-generation resume", res2.Instance, full.Instance)
}

// TestVersion1Artifact keeps version-1 artifacts readable. The fixture
// is examples/dlgp/quickstart.checkpoint as recorded before version 2
// dropped the fired-trigger sections; resumed with quickstart-delta.dlgp
// it must give the same instance, byte for byte, and the same Stats as
// the checked-in version-2 artifact.
func TestVersion1Artifact(t *testing.T) {
	progs := scenarios(t)
	delta := progs["quickstart-delta"]
	var results []*chase.Result
	for _, path := range []string{
		filepath.Join("testdata", "quickstart-v1.checkpoint"),
		filepath.Join("..", "..", "examples", "dlgp", "quickstart.checkpoint"),
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		res, err := cp.Resume(delta.Rules, delta.Database.Atoms(), chase.Options{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		results = append(results, res)
	}
	if v := results[1]; v == nil || v.Stats.Atoms == v.Stats.InitialAtoms {
		t.Fatal("setup: the delta should derive atoms")
	}
	sameInstance(t, "version 1 vs version 2 resume", results[0].Instance, results[1].Instance)
	if results[0].Stats != results[1].Stats || results[0].Terminated != results[1].Terminated {
		t.Fatalf("stats diverge: version 1 %+v, version 2 %+v", results[0].Stats, results[1].Stats)
	}
}
