package chase

import "testing"

// Running the same chase twice must give the same result atom-for-atom
// (compared by CanonicalKey, which bridges the two runs' null factories):
// no run may disturb state a TGD shares with the next one, such as the
// sorted body-variable ids the oblivious trigger keying reads.
func TestChaseRepeatableAcrossRuns(t *testing.T) {
	dbSrc := `e(a, b). e(b, c). e(c, a). s(a).`
	rulesSrc := `
		e(X, Y), s(X) -> ∃Z m(Y, Z), s(Y).
		m(X, Z) -> ∃W m(Z, W).
		e(X, Y) -> p(Y, X).
	`
	for _, v := range []Variant{SemiOblivious, Oblivious, Restricted} {
		r1 := run(t, dbSrc, rulesSrc, Options{Variant: v, MaxAtoms: 200})
		r2 := run(t, dbSrc, rulesSrc, Options{Variant: v, MaxAtoms: 200})
		if r1.Instance.CanonicalKey() != r2.Instance.CanonicalKey() {
			t.Errorf("%v chase differs across identical runs:\n%v\nvs\n%v", v, r1.Instance, r2.Instance)
		}
		if r1.Stats != r2.Stats {
			t.Errorf("%v chase stats differ across identical runs: %+v vs %+v", v, r1.Stats, r2.Stats)
		}
	}
}
