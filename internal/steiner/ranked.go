package steiner

import (
	"context"
	"sort"

	"repro/internal/graph"
	"repro/internal/intset"
)

// RankedCovers enumerates the node sets of *connection trees* over the
// terminals, ranked by the number of auxiliary (non-terminal) nodes,
// smallest first, ties broken canonically — the order in which a
// disambiguating interface proposes query interpretations (Section 1 of
// the paper; Fig 1's birthdate reading before its works-in reading).
//
// A connection tree is a tree of fg containing every terminal whose leaves
// are all terminals (an internal auxiliary node may be "skippable" for
// connectivity — the works-in reading remains a distinct interpretation
// even though the birthdate edge already connects the query). Two trees
// with the same node set count once. At most maxAux auxiliary nodes are
// considered and at most limit sets returned.
//
// Exponential in maxAux; intended for schema-sized graphs. The context is
// checked throughout the enumeration (per candidate subset and inside the
// spanning-tree backtracking), so a deadline bounds the enumeration; on
// cancellation RankedCovers returns ctx.Err().
func RankedCovers(ctx context.Context, fg *graph.Frozen, terminals []int, maxAux, limit int) ([]intset.Set, error) {
	p := intset.FromSlice(terminals)
	var others []int
	for v := 0; v < fg.N(); v++ {
		if !p.Contains(v) {
			others = append(others, v)
		}
	}
	var out []intset.Set
	var cur []int
	steps := 0
	var rec func(start int)
	rec = func(start int) {
		if len(out) >= limit*16 { // gather extra, prune after sorting
			return
		}
		if ctx.Err() != nil {
			return
		}
		sel := p.Union(intset.FromSlice(cur))
		if hasConnectionTree(ctx, fg, sel, p, &steps) {
			out = append(out, sel)
		}
		if len(cur) >= maxAux {
			return
		}
		for i := start; i < len(others); i++ {
			cur = append(cur, others[i])
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Len() != out[j].Len() {
			return out[i].Len() < out[j].Len()
		}
		return out[i].Key() < out[j].Key()
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// hasConnectionTree reports whether the subgraph induced by sel has a
// spanning tree whose leaves all lie in p. Backtracking over the induced
// edge set; exponential in the worst case but fine at interpretation
// scale (schema-sized graphs). steps accumulates backtracking work across
// calls so the context is polled at a bounded stride even when individual
// calls are tiny; on cancellation the result is meaningless and the caller
// must check ctx.Err().
func hasConnectionTree(ctx context.Context, fg *graph.Frozen, sel intset.Set, p intset.Set, steps *int) bool {
	n := sel.Len()
	if n == 0 {
		return false
	}
	if n == 1 {
		return true
	}
	pos := make(map[int]int, n)
	for i, v := range sel {
		pos[v] = i
	}
	var edges [][2]int
	for _, v := range sel {
		for _, w := range fg.Neighbors(v) {
			if v < int(w) && sel.Contains(int(w)) {
				edges = append(edges, [2]int{pos[v], pos[int(w)]})
			}
		}
	}
	if len(edges) < n-1 {
		return false
	}
	// An auxiliary node with < 2 induced neighbours can never be internal.
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for i, v := range sel {
		if !p.Contains(v) && deg[i] < 2 {
			return false
		}
	}
	var chosen [][2]int
	var rec func(next int) bool
	rec = func(next int) bool {
		*steps++
		if *steps&1023 == 0 && ctx.Err() != nil {
			return false
		}
		if len(chosen) == n-1 {
			return spanningTreeWithTerminalLeaves(n, chosen, sel, p)
		}
		if len(edges)-next < n-1-len(chosen) {
			return false
		}
		chosen = append(chosen, edges[next])
		if rec(next + 1) {
			return true
		}
		chosen = chosen[:len(chosen)-1]
		return rec(next + 1)
	}
	return rec(0)
}

// spanningTreeWithTerminalLeaves checks that the chosen edges form a
// spanning tree of the n selected nodes whose leaves are all terminals.
func spanningTreeWithTerminalLeaves(n int, chosen [][2]int, sel intset.Set, p intset.Set) bool {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	deg := make([]int, n)
	for _, e := range chosen {
		ru, rv := find(e[0]), find(e[1])
		if ru == rv {
			return false // cycle: not a tree
		}
		parent[ru] = rv
		deg[e[0]]++
		deg[e[1]]++
	}
	// n-1 acyclic edges over n nodes = spanning tree; check leaves.
	for i, v := range sel {
		if !p.Contains(v) && deg[i] <= 1 {
			return false
		}
	}
	return true
}
