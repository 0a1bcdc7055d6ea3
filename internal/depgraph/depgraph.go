// Package depgraph implements the dependency graph dg(Σ) and predicate
// graph pg(Σ) of a TGD set, and the weak-acyclicity tests built on them:
// the classical (uniform) weak-acyclicity of Fagin et al., and the paper's
// non-uniform, database-relative variant (Definition 6.1): Σ is
// D-weakly-acyclic iff dg(Σ) has no D-supported cycle through a special
// edge. A cycle is D-supported iff some (equivalently, every) predicate on
// it is reachable, in pg(Σ), from a predicate occurring in D.
package depgraph

import (
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/tgds"
)

// Edge is a dependency-graph edge between two predicate positions.
// Special edges carry existential propagation.
type Edge struct {
	From, To logic.Position
	Special  bool
	TGD      int // ID of the inducing TGD
}

// String renders the edge, marking special edges with "=>*".
func (e Edge) String() string {
	arrow := "->"
	if e.Special {
		arrow = "=>*"
	}
	return fmt.Sprintf("%v %s %v", e.From, arrow, e.To)
}

// Graph is the dependency graph dg(Σ): nodes are the positions of sch(Σ),
// edges are the normal and special edges of the definition in Section 6.
type Graph struct {
	Nodes []logic.Position
	Edges []Edge

	nodeIdx map[logic.Position]int
	out     [][]int // adjacency: node -> edge indexes
}

// Build constructs dg(Σ).
func Build(sigma *tgds.Set) *Graph {
	g := &Graph{nodeIdx: make(map[logic.Position]int)}
	for _, p := range sigma.Schema() {
		for _, pos := range logic.Positions(p) {
			g.nodeIdx[pos] = len(g.Nodes)
			g.Nodes = append(g.Nodes, pos)
		}
	}
	g.out = make([][]int, len(g.Nodes))
	for _, t := range sigma.TGDs {
		for _, x := range t.Frontier() {
			var bodyPos []logic.Position
			for _, a := range t.Body {
				bodyPos = append(bodyPos, a.VarPositions(x)...)
			}
			for _, from := range bodyPos {
				for _, ha := range t.Head {
					for _, to := range ha.VarPositions(x) {
						g.addEdge(Edge{From: from, To: to, TGD: t.ID})
					}
					for _, z := range t.Existential() {
						for _, to := range ha.VarPositions(z) {
							g.addEdge(Edge{From: from, To: to, Special: true, TGD: t.ID})
						}
					}
				}
			}
		}
	}
	return g
}

func (g *Graph) addEdge(e Edge) {
	fi, ok := g.nodeIdx[e.From]
	if !ok {
		return
	}
	if _, ok := g.nodeIdx[e.To]; !ok {
		return
	}
	g.Edges = append(g.Edges, e)
	g.out[fi] = append(g.out[fi], len(g.Edges)-1)
}

// NodeIndex returns the index of a position, or -1 if absent.
func (g *Graph) NodeIndex(p logic.Position) int {
	if i, ok := g.nodeIdx[p]; ok {
		return i
	}
	return -1
}

// SCCs returns the strongly connected components of the graph as slices of
// node indexes, in reverse topological order (Tarjan).
func (g *Graph) SCCs() [][]int {
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]int
	counter := 0

	// Iterative Tarjan to avoid deep recursion on large graphs.
	type frame struct {
		v    int
		edge int
	}
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		var frames []frame
		frames = append(frames, frame{v: start})
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.edge < len(g.out[f.v]) {
				e := g.Edges[g.out[f.v][f.edge]]
				f.edge++
				w := g.nodeIdx[e.To]
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sort.Ints(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// SpecialCycleEdges returns, for each special edge whose endpoints lie in
// the same SCC (i.e. that lies on a cycle), the edge. An empty result
// means the graph is weakly acyclic in the classical sense.
func (g *Graph) SpecialCycleEdges() []Edge {
	comp := make([]int, len(g.Nodes))
	for ci, scc := range g.SCCs() {
		for _, v := range scc {
			comp[v] = ci
		}
	}
	var out []Edge
	for _, e := range g.Edges {
		if !e.Special {
			continue
		}
		if comp[g.nodeIdx[e.From]] == comp[g.nodeIdx[e.To]] {
			out = append(out, e)
		}
	}
	return out
}

// Ranks returns, per node, the maximum number of special edges over all
// incoming paths (the rank of the proof of Lemma 6.2), with -1 standing
// for infinite rank. The second result is the maximum finite rank.
func (g *Graph) Ranks() ([]int, int) {
	sccs := g.SCCs()
	comp := make([]int, len(g.Nodes))
	for ci, scc := range sccs {
		for _, v := range scc {
			comp[v] = ci
		}
	}
	// A component is "bad" if it contains an internal special edge.
	bad := make([]bool, len(sccs))
	internal := make([][]Edge, len(sccs))
	for _, e := range g.Edges {
		cf, ct := comp[g.nodeIdx[e.From]], comp[g.nodeIdx[e.To]]
		if cf == ct {
			internal[cf] = append(internal[cf], e)
			if e.Special {
				bad[cf] = true
			}
		}
	}
	// Tarjan yields reverse topological order: successors of a component
	// appear before it. Process components in slice order so that when a
	// component is processed, all its successors are done — we need
	// predecessors first, so process in reverse slice order instead.
	rank := make([]int, len(g.Nodes))
	infinite := make([]bool, len(g.Nodes))
	for ci := len(sccs) - 1; ci >= 0; ci-- {
		scc := sccs[ci]
		// Incoming information was accumulated on the nodes already
		// (preds processed earlier propagate over cross edges below).
		inf := bad[ci]
		base := 0
		for _, v := range scc {
			if infinite[v] {
				inf = true
			}
			if rank[v] > base {
				base = rank[v]
			}
		}
		for _, v := range scc {
			infinite[v] = inf
			if rank[v] < base {
				rank[v] = base
			}
		}
		// Within a (non-bad) component, normal-edge cycles do not change
		// the special count, so every node of the SCC shares the value.
		// Propagate to successors over outgoing edges.
		for _, v := range scc {
			for _, ei := range g.out[v] {
				e := g.Edges[ei]
				w := g.nodeIdx[e.To]
				if comp[w] == ci {
					continue
				}
				if inf {
					infinite[w] = true
					continue
				}
				r := rank[v]
				if e.Special {
					r++
				}
				if r > rank[w] {
					rank[w] = r
				}
			}
		}
		// Special self-influence within the component when not bad:
		// special edges internal to a non-bad SCC cannot exist (that
		// would make it bad), so nothing further to do.
	}
	maxFinite := 0
	out := make([]int, len(g.Nodes))
	for i := range g.Nodes {
		if infinite[i] {
			out[i] = -1
			continue
		}
		out[i] = rank[i]
		if rank[i] > maxFinite {
			maxFinite = rank[i]
		}
	}
	return out, maxFinite
}

// SupportedRanks computes position ranks over the D-supported fragment of
// dg(Σ): the subgraph induced by positions whose predicates are reachable
// from a predicate of D. Per the proof of Lemma 6.2 (Claim C.1), for a
// D-weakly-acyclic SL set the depth of every term at position π in
// chase(D, Σ) is bounded by the rank of π, so the maximum finite rank is
// a per-database depth bound at least as tight as d_SL(Σ).
//
// The returned map contains only supported positions; the int result is
// the maximum finite rank (0 when there are no supported positions).
func SupportedRanks(db *logic.Instance, sigma *tgds.Set) (map[logic.Position]int, int) {
	pg := BuildPredGraph(sigma)
	reach := pg.ReachableFrom(db.Predicates())
	g := Build(sigma)
	// Restrict the graph to supported positions by rebuilding.
	restricted := &Graph{nodeIdx: make(map[logic.Position]int)}
	for _, n := range g.Nodes {
		if reach[n.Pred] {
			restricted.nodeIdx[n] = len(restricted.Nodes)
			restricted.Nodes = append(restricted.Nodes, n)
		}
	}
	restricted.out = make([][]int, len(restricted.Nodes))
	for _, e := range g.Edges {
		if reach[e.From.Pred] && reach[e.To.Pred] {
			restricted.addEdge(e)
		}
	}
	ranks, maxFinite := restricted.Ranks()
	out := make(map[logic.Position]int, len(restricted.Nodes))
	for i, n := range restricted.Nodes {
		out[n] = ranks[i]
	}
	return out, maxFinite
}
