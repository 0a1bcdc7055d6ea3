package chase

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
)

func TestResumeEmptyDeltaByteIdentical(t *testing.T) {
	dbSrc := `e(a, b). e(b, c). e(c, a). s(a).`
	rules := `e(X, Y), s(X) -> ∃W m(Y, W).
	          m(X, W) -> s(X).`
	for _, v := range []Variant{SemiOblivious, Oblivious, Restricted} {
		full := run(t, dbSrc, rules, Options{Variant: v, Checkpoint: true})
		if !full.Terminated {
			t.Fatalf("%v: run must terminate", v)
		}
		if full.Resume == nil {
			t.Fatalf("%v: terminated checkpointed run must capture resume state", v)
		}
		sigma, err := parser.ParseRules(rules)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Resume(full.Instance, nil, sigma, full.Resume, Options{Variant: v})
		if err != nil {
			t.Fatalf("%v: resume: %v", v, err)
		}
		if !res.Terminated {
			t.Fatalf("%v: resumed run must terminate", v)
		}
		if res.Instance.Len() != full.Instance.Len() {
			t.Fatalf("%v: resumed |I| = %d, want %d", v, res.Instance.Len(), full.Instance.Len())
		}
		if res.Instance.CanonicalKey() != full.Instance.CanonicalKey() {
			t.Fatalf("%v: empty-delta resume must be byte-identical", v)
		}
		if derived := res.Stats.Atoms - res.Stats.InitialAtoms; derived != 0 || res.Stats.Nulls != 0 {
			t.Fatalf("%v: empty-delta resume derived %d atoms, %d nulls; want none",
				v, derived, res.Stats.Nulls)
		}
	}
}

// Checkpoint at every intermediate round of a terminating chase; resuming
// with an empty delta must converge to the same final instance
// byte-identically, including null ids (an off-by-one delta window or
// checkpointed prefix would show up here immediately).
func TestResumeFromEveryRound(t *testing.T) {
	dbSrc := `e(a, b). e(b, c). e(c, d). e(d, e2). s(a).`
	rules := `e(X, Y), s(X) -> ∃W m(Y, W).
	          m(X, W) -> s(X).`
	full := run(t, dbSrc, rules, Options{Checkpoint: true})
	if !full.Terminated {
		t.Fatal("run must terminate")
	}
	sigma, err := parser.ParseRules(rules)
	if err != nil {
		t.Fatal(err)
	}
	db, err := parser.ParseDatabase(dbSrc)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < full.Stats.Rounds; k++ {
		part := Run(db, sigma, Options{Checkpoint: true, MaxRounds: k})
		if part.Terminated {
			t.Fatalf("round %d: must not have terminated yet", k)
		}
		if part.Resume == nil {
			t.Fatalf("round %d: MaxRounds stop is a clean boundary, resume state missing", k)
		}
		res, err := Resume(part.Instance, nil, sigma, part.Resume, Options{})
		if err != nil {
			t.Fatalf("round %d: resume: %v", k, err)
		}
		if !res.Terminated {
			t.Fatalf("round %d: resumed run must terminate", k)
		}
		if res.Instance.CanonicalKey() != full.Instance.CanonicalKey() {
			t.Fatalf("round %d: resumed final instance differs from full run", k)
		}
		if got, want := part.Stats.Rounds+res.Stats.Rounds, full.Stats.Rounds; got != want {
			// The checkpoint's window is exactly what round k+1 would have
			// consumed, so the split run executes the same round sequence:
			// k rounds before the cut, the remaining R-k after.
			t.Fatalf("round %d: %d+%d rounds, want total %d",
				k, part.Stats.Rounds, res.Stats.Rounds, want)
		}
	}
}

// Resume with a genuine base-data delta agrees with the full re-chase of
// the merged database: byte-identically never (null ids are assigned in
// firing order), but exactly under canonical null naming.
func TestResumeDeltaMatchesFullRechase(t *testing.T) {
	dbSrc := `e(a, b). s(a).`
	deltaSrc := `e(b, c). e(c, d).`
	rules := `e(X, Y), s(X) -> ∃W m(Y, W).
	          m(X, W) -> s(X).`
	sigma, err := parser.ParseRules(rules)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := parser.ParseDatabase(deltaSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{SemiOblivious, Oblivious} {
		first := run(t, dbSrc, rules, Options{Variant: v, Checkpoint: true})
		if !first.Terminated || first.Resume == nil {
			t.Fatalf("%v: bad first run", v)
		}
		res, err := Resume(first.Instance, delta.Atoms(), sigma, first.Resume, Options{Variant: v})
		if err != nil {
			t.Fatalf("%v: resume: %v", v, err)
		}
		if !res.Terminated {
			t.Fatalf("%v: resumed run must terminate", v)
		}

		merged, err := parser.ParseDatabase(dbSrc)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range delta.Atoms() {
			merged.Add(a)
		}
		fullRes := Run(merged, sigma, Options{Variant: v})
		if !fullRes.Terminated {
			t.Fatalf("%v: full re-chase must terminate", v)
		}

		resNames := res.NullNames(first.NullNames(nil))
		fullNames := fullRes.NullNames(nil)
		got := CanonicalForm(res.Instance, resNames)
		want := CanonicalForm(fullRes.Instance, fullNames)
		if got != want {
			t.Fatalf("%v: resume+delta differs from full re-chase\nresume:\n%s\nfull:\n%s", v, got, want)
		}
		if !strings.Contains(got, "⊥{") {
			t.Fatalf("%v: canonical form should name at least one null:\n%s", v, got)
		}
	}
}

// A trigger considered before the checkpoint stays fired after it. The
// delta atom e(c, b) gives e(X, Y) → ∃Z m(Y, Z) the frontier image
// Y ↦ b, which e(a, b) already fired: the semi-oblivious and restricted
// resumes must add no second m atom, while the oblivious chase keys
// nulls by the whole match and adds one. Each count is the full
// re-chase's, with semi-naive and with NoSemiNaive resumed rounds.
func TestResumeKeepsOldTriggersFired(t *testing.T) {
	const rules = `e(X, Y) -> ∃Z m(Y, Z).`
	sigma := parser.MustParseRules(rules)
	delta := parser.MustParseDatabase(`e(c, b).`).Atoms()
	m := logic.Predicate{Name: "m", Arity: 2}
	for _, tc := range []struct {
		v     Variant
		wantM int
	}{{SemiOblivious, 1}, {Oblivious, 2}, {Restricted, 1}} {
		for _, naive := range []bool{false, true} {
			full := run(t, `e(a, b).`, rules, Options{Variant: tc.v, Checkpoint: true, NoSemiNaive: naive})
			res, err := Resume(full.Instance, delta, sigma, full.Resume, Options{Variant: tc.v, NoSemiNaive: naive})
			if err != nil {
				t.Fatalf("%v naive=%v: resume: %v", tc.v, naive, err)
			}
			if !res.Terminated {
				t.Fatalf("%v naive=%v: resumed run must terminate", tc.v, naive)
			}
			if got := len(res.Instance.ByPred(m)); got != tc.wantM {
				t.Fatalf("%v naive=%v: %d m atoms after the resume, want %d:\n%v", tc.v, naive, got, tc.wantM, res.Instance)
			}
		}
	}
}

func TestResumeValidation(t *testing.T) {
	full := run(t, `r(a, b).`, `r(X, Y) -> p(X).`, Options{Checkpoint: true})
	sigma, err := parser.ParseRules(`r(X, Y) -> p(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(full.Instance, nil, sigma, nil, Options{}); err == nil {
		t.Fatal("nil state must be rejected")
	}
	if _, err := Resume(full.Instance, nil, sigma, full.Resume, Options{Variant: Restricted}); err == nil {
		t.Fatal("variant mismatch must be rejected")
	}
	bad := *full.Resume
	bad.DeltaStart = full.Instance.Len() + 1
	if _, err := Resume(full.Instance, nil, sigma, &bad, Options{}); err == nil {
		t.Fatal("out-of-range delta window must be rejected")
	}
}

// A run stopped mid-apply (MaxAtoms crossed with triggers still pending)
// has interned-but-unapplied state and must refuse to checkpoint.
func TestNoCheckpointAtDirtyBoundary(t *testing.T) {
	// One round wants to add many atoms; the budget cuts it mid-apply.
	res := run(t, `r(a). r(b). r(c). r(d). r(e2). r(f). r(g). r(h).`,
		`r(X) -> ∃Z s(X, Z).`,
		Options{Checkpoint: true, MaxAtoms: 10})
	if res.Terminated {
		t.Fatal("run must stop on budget")
	}
	if res.Resume != nil {
		t.Fatal("mid-apply stop is dirty; resume state must not be captured")
	}
}

// High-water-mark seeding: a resumed run numbers its fresh nulls from the
// state's NextNullID, even above the instance's largest null id (a trigger
// whose atoms were all duplicates still interned its nulls). A delta atom
// that carries a null is refused: its id could name a checkpointed or an
// invented null.
func TestResumeNullIDHighWater(t *testing.T) {
	full := run(t, `r(a, b).`, `r(X, Y) -> ∃Z s(Y, Z).`, Options{Checkpoint: true})
	if !full.Terminated || full.Resume == nil {
		t.Fatal("bad first run")
	}
	sigma, err := parser.ParseRules(`r(X, Y) -> ∃Z s(Y, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	hostile, _ := logic.NewNullFactoryAt(full.Resume.NextNullID).Intern("h", 1)
	bad := []*logic.Atom{logic.MakeAtom("r", logic.Constant("z"), hostile)}
	if _, err := Resume(full.Instance, bad, sigma, full.Resume, Options{}); !errors.Is(err, ErrDeltaNull) {
		t.Fatalf("delta null: err = %v, want ErrDeltaNull", err)
	}
	st := *full.Resume
	st.NextNullID += 3
	delta := []*logic.Atom{logic.MakeAtom("r", logic.Constant("z"), logic.Constant("c"))}
	res, err := Resume(full.Instance, delta, sigma, &st, Options{Checkpoint: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !res.Terminated || res.Stats.Nulls != 1 {
		t.Fatalf("resumed run: terminated %v, %d nulls, want one null", res.Terminated, res.Stats.Nulls)
	}
	if got := res.Instance.MaxNullID(); got != st.NextNullID {
		t.Fatalf("fresh null numbered %d, want NextNullID %d", got, st.NextNullID)
	}
	if res.Resume.NextNullID != st.NextNullID+1 {
		t.Fatalf("chained NextNullID = %d, want %d", res.Resume.NextNullID, st.NextNullID+1)
	}
}

// Resumed runs must stay semi-naive: their first round may not re-derive
// from the processed prefix.
func TestResumeIsSemiNaive(t *testing.T) {
	full := run(t, `e(a, b). e(b, c).`, `e(X, Y) -> p(X, Y).`, Options{Checkpoint: true})
	sigma, err := parser.ParseRules(`e(X, Y) -> p(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := parser.ParseDatabase(`e(c, d).`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resume(full.Instance, delta.Atoms(), sigma, full.Resume, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the delta's consequence is new.
	if derived := res.Stats.Atoms - res.Stats.InitialAtoms; derived != 1 {
		t.Fatalf("resumed run derived %d atoms, want exactly the delta's 1", derived)
	}
	// Considered triggers stay bounded by the delta window, not the whole
	// instance: a full re-enumeration would consider 3 e-atoms.
	if res.Stats.TriggersConsidered > 2 {
		t.Fatalf("resumed round considered %d triggers; round-1 full enumeration leaked in", res.Stats.TriggersConsidered)
	}
}
