package chase

import (
	"strconv"
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
)

func TestDerivationRecordingAndValidation(t *testing.T) {
	db := parser.MustParseDatabase(`e(a, b). e(b, c).`)
	rules := parser.MustParseRules(`
		e(X, Y) -> ∃Z m(Y, Z).
		m(X, Z) -> p(X).
	`)
	res := Run(db, rules, Options{RecordDerivation: true})
	if !res.Terminated {
		t.Fatal("chase must terminate")
	}
	if res.Derivation == nil {
		t.Fatal("derivation requested but missing")
	}
	if len(res.Derivation.Steps) == 0 {
		t.Fatal("derivation has no steps")
	}
	if err := res.Derivation.Validate(rules, res.Instance, true); err != nil {
		t.Fatalf("valid derivation rejected: %v", err)
	}
}

func TestDerivationValidationOnPrefix(t *testing.T) {
	db := parser.MustParseDatabase(`r(a, b).`)
	rules := parser.MustParseRules(`r(X, Y) -> ∃Z r(Y, Z).`)
	res := Run(db, rules, Options{RecordDerivation: true, MaxAtoms: 20})
	if res.Terminated {
		t.Fatal("budgeted run must not terminate")
	}
	// A prefix of an infinite derivation is valid but not terminated.
	if err := res.Derivation.Validate(rules, res.Instance, false); err != nil {
		t.Fatalf("valid prefix rejected: %v", err)
	}
	// Claiming termination must fail: active triggers remain.
	if err := res.Derivation.Validate(rules, res.Instance, true); err == nil {
		t.Fatal("prefix must not validate as terminated")
	}
}

// TestDerivationValidatesOverInitialNulls: a resumed run's Initial
// instance carries the checkpointed run's nulls, and the replay numbers
// its own nulls above them. A replay numbering from 0 would name ⊥0 again,
// find s(⊥0) already present and count one atom short.
func TestDerivationValidatesOverInitialNulls(t *testing.T) {
	rules := parser.MustParseRules(`p(X) -> ∃Z q(X, Z), s(Z).`)
	first := Run(parser.MustParseDatabase(`p(a).`), rules, Options{Checkpoint: true})
	if first.Instance.MaxNullID() != 0 {
		t.Fatalf("setup: first run's nulls end at %d, want 0", first.Instance.MaxNullID())
	}
	delta := parser.MustParseDatabase(`p(b).`).Atoms()
	res, err := Resume(first.Instance, delta, rules, first.Resume, Options{RecordDerivation: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Derivation.Validate(rules, res.Instance, true); err != nil {
		t.Fatalf("valid resumed derivation rejected: %v", err)
	}
}

func TestDerivationValidationDetectsTampering(t *testing.T) {
	db := parser.MustParseDatabase(`e(a, b).`)
	rules := parser.MustParseRules(`e(X, Y) -> p(X).`)
	res := Run(db, rules, Options{RecordDerivation: true})
	d := res.Derivation
	if err := d.Validate(rules, res.Instance, true); err != nil {
		t.Fatal(err)
	}
	// Duplicate a step: the replay adds nothing for the copy, so the
	// recorded production count no longer matches.
	d.Steps = append(d.Steps, d.Steps[0])
	if err := d.Validate(rules, res.Instance, true); err == nil {
		t.Fatal("tampered derivation must be rejected")
	}
}

func TestNoSemiNaiveAblation(t *testing.T) {
	db := parser.MustParseDatabase(`e(a, b). e(b, c). e(c, d). e(d, e1).`)
	rules := parser.MustParseRules(`
		e(X, Y) -> ∃Z m(Y, Z).
		m(X, Z) -> p(X).
	`)
	fast := Run(db, rules, Options{})
	slow := Run(db, rules, Options{NoSemiNaive: true})
	if !fast.Terminated || !slow.Terminated {
		t.Fatal("both runs must terminate")
	}
	if fast.Instance.CanonicalKey() != slow.Instance.CanonicalKey() {
		t.Fatal("ablation must not change the result")
	}
	if slow.Stats.TriggersConsidered < fast.Stats.TriggersConsidered {
		t.Fatalf("naive rounds must consider at least as many triggers: %d vs %d",
			slow.Stats.TriggersConsidered, fast.Stats.TriggersConsidered)
	}
}

// The chase result is a universal model: it maps homomorphically into the
// result of the oblivious chase (another model of D and Σ) and vice
// versa, on terminating inputs.
func TestUniversality(t *testing.T) {
	db := parser.MustParseDatabase(`e(a, b). e(a, c).`)
	rules := parser.MustParseRules(`
		e(X, Y) -> ∃Z m(X, Z).
		m(X, Z) -> touched(X).
	`)
	semi := Run(db, rules, Options{})
	obl := Run(db, rules, Options{Variant: Oblivious})
	if !semi.Terminated || !obl.Terminated {
		t.Fatal("both runs must terminate")
	}
	if !homInto(semi.Instance, obl.Instance) {
		t.Fatal("semi-oblivious result must map into the oblivious model")
	}
	if !homInto(obl.Instance, semi.Instance) {
		t.Fatal("oblivious result must map into the semi-oblivious model")
	}
}

// homInto reports whether a maps homomorphically into b: with a's nulls
// read as variables, a is one conjunctive query, and it must match in b.
func homInto(a, b *logic.Instance) bool {
	body := make([]*logic.Atom, 0, a.Len())
	for _, atom := range a.Atoms() {
		args := make([]logic.Term, len(atom.Args))
		for i, tm := range atom.Args {
			if n, ok := tm.(*logic.Null); ok {
				tm = logic.Variable("N" + strconv.Itoa(int(logic.IDOf(n))))
			}
			args[i] = tm
		}
		body = append(body, logic.NewAtom(atom.Pred, args...))
	}
	return logic.ExtendOne(body, b, logic.Substitution{}) != nil
}
