package chase

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/tgds"
)

// Step records one trigger application of a chase derivation: the TGD,
// the frontier restriction h|fr(σ) of the homomorphism, and the atoms the
// application contributed.
type Step struct {
	TGD      *tgds.TGD
	Frontier logic.Substitution
	Produced []*logic.Atom
}

// String renders the step.
func (s Step) String() string {
	return fmt.Sprintf("apply σ%d with %v: +%d atoms", s.TGD.ID, s.Frontier, len(s.Produced))
}

// Derivation is the ordered sequence of trigger applications of a run,
// recorded when Options.RecordDerivation is set.
type Derivation struct {
	Initial *logic.Instance
	Steps   []Step
}

// Validate checks that the derivation is a valid chase derivation of its
// initial instance w.r.t. sigma in the sense of Definition 3.2:
//
//   - every step's frontier assignment extends to a homomorphism from the
//     TGD's body into the instance constructed so far,
//   - every step contributes exactly the absent part of result(σ, h)
//     (with canonical semi-oblivious nulls),
//   - if final is non-nil, the replayed instance has the same cardinality
//     and shape as final, and
//   - if terminated is true, no active trigger remains (the finite case
//     of the definition: the result must satisfy Σ).
func (d *Derivation) Validate(sigma *tgds.Set, final *logic.Instance, terminated bool) error {
	inst := d.Initial.Clone()
	// Replayed nulls number above Initial's, which they must not name.
	nulls := logic.NewNullFactoryAt(d.Initial.MaxNullID() + 1)
	resultOf := func(t *tgds.TGD, h logic.Substitution) []*logic.Atom {
		mu := h.Clone()
		for _, z := range t.Existential() {
			key := fmt.Sprintf("%d\x02%s", t.ID, z)
			depth := 1
			for _, x := range t.Frontier() {
				if dd := logic.TermDepth(mu[x]); dd+1 > depth {
					depth = dd + 1
				}
				key += "\x01" + mu[x].Key()
			}
			n, _ := nulls.Intern(key, depth)
			mu[z] = n
		}
		out := make([]*logic.Atom, len(t.Head))
		for i, ha := range t.Head {
			out[i] = mu.ApplyAtom(ha)
		}
		return out
	}
	// The replay mints nulls from its own factory, and a null is only the
	// same term as the run's null if it is the same interned symbol. xlat
	// maps each recorded null to its replay twin (paired below as replayed
	// atoms line up with the step's Produced atoms), so later frontiers are
	// rewritten into replay terms before being checked.
	xlat := make(map[logic.Term]logic.Term)
	remap := func(h logic.Substitution) logic.Substitution {
		out := make(logic.Substitution, len(h))
		for v, t := range h {
			if r, ok := xlat[t]; ok {
				out[v] = r
			} else {
				out[v] = t
			}
		}
		return out
	}
	for i, step := range d.Steps {
		fr := remap(step.Frontier)
		if logic.ExtendOne(step.TGD.Body, inst, fr) == nil {
			return fmt.Errorf("chase: step %d: frontier %v does not extend to a body homomorphism", i, step.Frontier)
		}
		added := 0
		for _, a := range resultOf(step.TGD, fr) {
			if !inst.Add(a) {
				continue
			}
			if added < len(step.Produced) {
				po := step.Produced[added]
				if po.Pred == a.Pred {
					for j, arg := range a.Args {
						rn, ok := arg.(*logic.Null)
						if !ok {
							continue
						}
						if on, ok := po.Args[j].(*logic.Null); ok {
							xlat[on] = rn
						}
					}
				}
			}
			added++
		}
		if added != len(step.Produced) {
			return fmt.Errorf("chase: step %d: replay added %d atoms, step recorded %d", i, added, len(step.Produced))
		}
	}
	if final != nil && inst.Len() != final.Len() {
		return fmt.Errorf("chase: replay yields %d atoms, final has %d", inst.Len(), final.Len())
	}
	if terminated {
		// No active trigger may remain — the finite case of Definition 3.2
		// is I ⊨ Σ. The fast path checks the canonical result (the replay
		// factory makes null naming globally consistent for nulls this
		// derivation minted); when that misses, the trigger may still be
		// satisfied by nulls that predate the derivation — a resumed run's
		// Initial instance carries the checkpointed generation's nulls,
		// which no replay step renames — so the definition's actual
		// condition is checked: some extension of the frontier assignment
		// makes every head atom present.
		for _, t := range sigma.TGDs {
			t := t
			var active error
			logic.MatchAll(t.Body, inst, func(h logic.Substitution) bool {
				fr := h.Restrict(t.Frontier())
				for _, a := range resultOf(t, fr) {
					if !inst.Has(a) {
						if logic.ExtendOne(t.Head, inst, fr) == nil {
							active = fmt.Errorf("chase: active trigger remains: σ%d with %v misses %v", t.ID, h, a)
							return false
						}
						break
					}
				}
				return true
			})
			if active != nil {
				return active
			}
		}
	}
	return nil
}
