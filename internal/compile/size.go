package compile

import (
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/logic"
	"repro/internal/tgds"
)

// Approximate per-artifact byte accounting. The cache's LRU is
// entry-counted; these estimates feed Stats.Bytes, which the
// compile_cache_bytes gauge and -stats surface. "Approximate" means a
// structural cost model — counts of atoms, arguments, nodes, and edges
// times plausible per-record costs — not a heap measurement: the numbers
// are deterministic, cheap to compute at build time, and proportional to
// the real footprint.

const (
	wordB   = 8  // one pointer/int word
	sliceB  = 24 // slice header
	recordB = 48 // small struct with a header or two
)

// atomBytes models one logic.Atom: the struct, its Args and id slices,
// and the argument records they point at.
func atomBytes(a *logic.Atom) int {
	return 2*recordB + len(a.Pred.Name) + len(a.Args)*(2*wordB+sliceB/2)
}

// setBytes models a *tgds.Set: per TGD, its atoms plus the memoized key
// and variable lists.
func setBytes(s *tgds.Set) int {
	if s == nil {
		return 0
	}
	n := recordB
	for _, t := range s.TGDs {
		n += 2 * recordB
		for _, a := range t.Body {
			n += atomBytes(a)
		}
		for _, a := range t.Head {
			n += atomBytes(a)
		}
	}
	return n
}

// compiledChaseBytes models chase.CompiledSet built for sigma: per TGD,
// one head program (one record per head-atom argument) and one body
// program per seed atom (join plan over the body's atoms and variables).
func compiledChaseBytes(sigma *tgds.Set) int {
	n := recordB
	for _, t := range sigma.TGDs {
		n += len(t.Key()) + sliceB
		for _, a := range t.Head {
			n += recordB + len(a.Args)*3*wordB
		}
		body := 0
		for _, a := range t.Body {
			body += recordB + len(a.Args)*2*wordB
		}
		// One compiled program per seed position (≈ per body atom).
		n += len(t.Body) * (recordB + body)
	}
	return n
}

// graphBytes models dg(Σ): nodes, edges, and the index/adjacency maps.
func graphBytes(g *depgraph.Graph) int {
	return recordB + len(g.Nodes)*(recordB+wordB) + len(g.Edges)*(2*recordB)
}

// predGraphBytes models pg(Σ) from the set it was built from: one
// adjacency entry per (body predicate, head predicate) pair per TGD.
func predGraphBytes(sigma *tgds.Set) int {
	n := recordB + len(sigma.Schema())*recordB
	for _, t := range sigma.TGDs {
		n += len(t.Body) * len(t.Head) * wordB
	}
	return n
}

// ucqBytes models Q_Σ: one disjunct record plus its pattern words.
func ucqBytes(q core.UCQ) int {
	n := sliceB
	for _, d := range q.Disjuncts {
		n += recordB + len(d.Pred.Name) + len(d.Pattern)*wordB
	}
	return n
}

// certBytes models a weak-acyclicity verdict with its optional
// certificate.
func certBytes(cert *depgraph.Certificate) int {
	if cert == nil {
		return wordB
	}
	return 2 * recordB
}
