package query

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/logic"
	"repro/internal/parser"
)

var (
	x = logic.Variable("X")
	y = logic.Variable("Y")
)

func TestNewCQValidation(t *testing.T) {
	if _, err := NewCQ(nil, nil); err == nil {
		t.Fatal("empty body must be rejected")
	}
	if _, err := NewCQ([]logic.Variable{x}, []*logic.Atom{logic.MakeAtom("r", y)}); err == nil {
		t.Fatal("unbound answer variable must be rejected")
	}
}

func TestAnswersAndCertainAnswers(t *testing.T) {
	prog, err := parser.Parse(`
		emp(ada). emp(bob).
		knows(ada, bob).
		emp(X) -> ∃Y mentor(X, Y).
		knows(X, Y) -> mentor(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := chase.Run(prog.Database, prog.Rules, chase.Options{})
	if !res.Terminated {
		t.Fatal("chase must terminate")
	}
	q := MustCQ([]logic.Variable{x, y}, []*logic.Atom{logic.MakeAtom("mentor", x, y)})
	all := q.Answers(res.Instance)
	certain := q.CertainAnswers(res.Instance)
	// All answers: (ada,bob) plus two null mentors. Certain: (ada,bob).
	if len(all) != 3 {
		t.Fatalf("answers = %v", all)
	}
	if len(certain) != 1 || certain[0].String() != "(ada,bob)" {
		t.Fatalf("certain answers = %v", certain)
	}
}

func TestBooleanCertainty(t *testing.T) {
	prog, err := parser.Parse(`
		emp(ada).
		emp(X) -> ∃Y mentor(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := chase.Run(prog.Database, prog.Rules, chase.Options{})
	// ∃Y mentor(ada, Y) certainly holds although the witness is a null:
	// its certain answers are the one empty tuple.
	q := MustCQ(nil, []*logic.Atom{logic.MakeAtom("mentor", logic.Constant("ada"), y)})
	if got := q.CertainAnswers(res.Instance); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("boolean query must certainly hold: certain answers %v", got)
	}
	q2 := MustCQ(nil, []*logic.Atom{logic.MakeAtom("mentor", logic.Constant("eve"), y)})
	if got := q2.CertainAnswers(res.Instance); len(got) != 0 {
		t.Fatalf("query about missing constant must fail: certain answers %v", got)
	}
}

func TestJoinQuery(t *testing.T) {
	db := parser.MustParseDatabase(`
		e(a, b). e(b, c). e(c, d).
	`)
	z := logic.Variable("Z")
	q := MustCQ([]logic.Variable{x, z}, []*logic.Atom{
		logic.MakeAtom("e", x, y), logic.MakeAtom("e", y, z),
	})
	got := q.Answers(db)
	if len(got) != 2 {
		t.Fatalf("answers = %v", got)
	}
}

// Certain answers are monotone under chase extension: answers over a
// prefix are answers over the full chase.
func TestCertainAnswersMonotone(t *testing.T) {
	prog, err := parser.Parse(`
		p(a).
		p(X) -> ∃Y q(X, Y).
		q(X, Y) -> r(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	short := chase.Run(prog.Database, prog.Rules, chase.Options{MaxRounds: 1})
	full := chase.Run(prog.Database, prog.Rules, chase.Options{})
	q := MustCQ([]logic.Variable{x}, []*logic.Atom{logic.MakeAtom("r", x)})
	shortAns := q.CertainAnswers(short.Instance)
	fullAns := q.CertainAnswers(full.Instance)
	if len(shortAns) > len(fullAns) {
		t.Fatalf("monotonicity violated: %v vs %v", shortAns, fullAns)
	}
	if len(fullAns) != 1 {
		t.Fatalf("full answers = %v", fullAns)
	}
}

func TestStringRendering(t *testing.T) {
	q := MustCQ([]logic.Variable{x}, []*logic.Atom{logic.MakeAtom("r", x, y)})
	if q.String() != "ans(X) <- r(X,Y)" {
		t.Fatalf("rendering = %q", q.String())
	}
}
