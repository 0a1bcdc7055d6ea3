package tgds

import (
	"testing"

	"repro/internal/logic"
)

func atom(name string, args ...logic.Term) *logic.Atom { return logic.MakeAtom(name, args...) }

var (
	x = logic.Variable("X")
	y = logic.Variable("Y")
	z = logic.Variable("Z")
	w = logic.Variable("W")
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, []*logic.Atom{atom("R", x)}); err == nil {
		t.Fatal("empty body must be rejected")
	}
	if _, err := New([]*logic.Atom{atom("R", x)}, nil); err == nil {
		t.Fatal("empty head must be rejected")
	}
}

func TestFrontierAndExistential(t *testing.T) {
	// R(x,y) -> ∃z R(y,z), P(x)
	tg := MustNew(
		[]*logic.Atom{atom("R", x, y)},
		[]*logic.Atom{atom("R", y, z), atom("P", x)},
	)
	fr := tg.Frontier()
	if len(fr) != 2 || fr[0] != x || fr[1] != y {
		t.Fatalf("frontier = %v", fr)
	}
	ex := tg.Existential()
	if len(ex) != 1 || ex[0] != z {
		t.Fatalf("existential = %v", ex)
	}
}

func TestClasses(t *testing.T) {
	sl := MustNew([]*logic.Atom{atom("R", x, y)}, []*logic.Atom{atom("R", y, z)})
	if !sl.IsSimpleLinear() || !sl.IsLinear() || !sl.IsGuarded() {
		t.Fatal("R(x,y)->R(y,z) is SL ⊊ L ⊊ G")
	}
	l := MustNew([]*logic.Atom{atom("R", x, x)}, []*logic.Atom{atom("R", z, x)})
	if l.IsSimpleLinear() || !l.IsLinear() {
		t.Fatal("R(x,x)->R(z,x) is linear but not simple")
	}
	g := MustNew(
		[]*logic.Atom{atom("P", x, y, z), atom("S", x, z)},
		[]*logic.Atom{atom("R", y)},
	)
	if g.IsLinear() || !g.IsGuarded() {
		t.Fatal("guarded but not linear")
	}
	if g.Guard().Pred.Name != "P" {
		t.Fatalf("guard = %v", g.Guard())
	}
	ug := MustNew(
		[]*logic.Atom{atom("R", x, y), atom("R", y, z)},
		[]*logic.Atom{atom("R", x, z)},
	)
	if ug.IsGuarded() {
		t.Fatal("transitivity is unguarded")
	}
}

func TestGuardLeftmost(t *testing.T) {
	// Both atoms contain all variables; the leftmost is the guard.
	tg := MustNew(
		[]*logic.Atom{atom("A", x, y), atom("B", y, x)},
		[]*logic.Atom{atom("C", x)},
	)
	if tg.Guard() != tg.Body[0] {
		t.Fatalf("guard = %v, want the leftmost body atom %v", tg.Guard(), tg.Body[0])
	}
}

func TestSetClassify(t *testing.T) {
	sl := MustNew([]*logic.Atom{atom("R", x, y)}, []*logic.Atom{atom("R", y, z)})
	l := MustNew([]*logic.Atom{atom("R", w, w)}, []*logic.Atom{atom("P", w)})
	g := MustNew([]*logic.Atom{atom("P", x, y, z), atom("S", x, z)}, []*logic.Atom{atom("R", y)})
	u := MustNew([]*logic.Atom{atom("R", x, y), atom("R", y, z)}, []*logic.Atom{atom("R", x, z)})

	if got := NewSet(sl).Classify(); got != ClassSL {
		t.Fatalf("classify SL = %v", got)
	}
	if got := NewSet(sl, l).Classify(); got != ClassL {
		t.Fatalf("classify L = %v", got)
	}
	if got := NewSet(sl, l, g).Classify(); got != ClassG {
		t.Fatalf("classify G = %v", got)
	}
	if got := NewSet(sl, u).Classify(); got != ClassTGD {
		t.Fatalf("classify TGD = %v", got)
	}
}

func TestSetMetrics(t *testing.T) {
	set := NewSet(
		MustNew([]*logic.Atom{atom("R", x, y)}, []*logic.Atom{atom("P", y, z, w)}),
		MustNew([]*logic.Atom{atom("P", x, y, z)}, []*logic.Atom{atom("R", x, y)}),
	)
	sch := set.Schema()
	if len(sch) != 2 {
		t.Fatalf("schema = %v", sch)
	}
	if set.Arity() != 3 {
		t.Fatalf("arity = %d", set.Arity())
	}
	if set.AtomCount() != 4 {
		t.Fatalf("atom count = %d", set.AtomCount())
	}
	if set.Norm() != 4*2*3 {
		t.Fatalf("norm = %d", set.Norm())
	}
}

func TestSetDeduplication(t *testing.T) {
	a := MustNew([]*logic.Atom{atom("R", x, y)}, []*logic.Atom{atom("R", y, z)})
	b := MustNew([]*logic.Atom{atom("R", x, y)}, []*logic.Atom{atom("R", y, z)})
	set := NewSet(a, b)
	if set.Len() != 1 {
		t.Fatalf("duplicate TGDs must be removed, len = %d", set.Len())
	}
}

func TestClassOrder(t *testing.T) {
	if !(ClassSL < ClassL && ClassL < ClassG && ClassG < ClassTGD) {
		t.Fatal("class constants must be ordered SL < L < G < TGD")
	}
	if ClassSL.String() != "SL" || ClassTGD.String() != "TGD" {
		t.Fatal("class names")
	}
}
