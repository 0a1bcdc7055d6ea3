// Package query implements conjunctive queries (CQs) over instances,
// including certain-answer semantics over chase materializations. This is the consumer side of the paper's motivation:
// ontological query answering computes the certain answers of a query q
// over (D, Σ), which — whenever the chase terminates — equal the answers
// of q over chase(D, Σ) that mention no labeled nulls (the universal-model
// property of Section 1).
package query

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logic"
)

// CQ is a conjunctive query: answer variables and a body of atoms over
// variables and constants. A CQ with no answer variables is Boolean: its
// answers are one empty tuple when the body matches, and none otherwise.
type CQ struct {
	Answer []logic.Variable
	Body   []*logic.Atom
}

// NewCQ validates and constructs a conjunctive query: every answer
// variable must occur in the body.
func NewCQ(answer []logic.Variable, body []*logic.Atom) (*CQ, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("query: empty body")
	}
	inBody := make(map[logic.Variable]bool)
	for _, a := range body {
		for _, t := range a.Args {
			if v, ok := t.(logic.Variable); ok {
				inBody[v] = true
			}
		}
	}
	for _, v := range answer {
		if !inBody[v] {
			return nil, fmt.Errorf("query: answer variable %s does not occur in the body", v)
		}
	}
	return &CQ{Answer: answer, Body: body}, nil
}

// MustCQ is NewCQ for statically-known queries; it panics on error.
func MustCQ(answer []logic.Variable, body []*logic.Atom) *CQ {
	q, err := NewCQ(answer, body)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the CQ in rule-like syntax.
func (q *CQ) String() string {
	vars := make([]string, len(q.Answer))
	for i, v := range q.Answer {
		vars[i] = string(v)
	}
	atoms := make([]string, len(q.Body))
	for i, a := range q.Body {
		atoms[i] = a.String()
	}
	return "ans(" + strings.Join(vars, ",") + ") <- " + strings.Join(atoms, ", ")
}

// Tuple is one answer: the images of the answer variables, in order.
type Tuple []logic.Term

// Key returns a canonical identity for the tuple.
func (t Tuple) Key() string {
	parts := make([]string, len(t))
	for i, term := range t {
		parts[i] = term.Key()
	}
	return strings.Join(parts, "\x01")
}

// String renders the tuple.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, term := range t {
		parts[i] = term.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Answers evaluates the CQ over the instance and returns the distinct
// answer tuples (which may contain labeled nulls), sorted canonically.
func (q *CQ) Answers(in *logic.Instance) []Tuple {
	return q.answers(in, false)
}

// CertainAnswers evaluates the CQ over a chase materialization and keeps
// only null-free tuples: by the universal-model property these are
// exactly the certain answers of the query over (D, Σ) when the instance
// is (a superset of the core of) chase(D, Σ).
func (q *CQ) CertainAnswers(chased *logic.Instance) []Tuple {
	return q.answers(chased, true)
}

func (q *CQ) answers(in *logic.Instance, groundOnly bool) []Tuple {
	seen := make(map[string]bool)
	var out []Tuple
	logic.MatchAll(q.Body, in, func(h logic.Substitution) bool {
		tuple := make(Tuple, len(q.Answer))
		for i, v := range q.Answer {
			tuple[i] = h[v]
		}
		if groundOnly {
			for _, t := range tuple {
				if _, isNull := t.(*logic.Null); isNull {
					return true
				}
			}
		}
		if k := tuple.Key(); !seen[k] {
			seen[k] = true
			out = append(out, tuple)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}
