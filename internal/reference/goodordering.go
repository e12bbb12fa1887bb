package reference

import (
	"repro/internal/graph"
	"repro/internal/intset"
)

// IsGoodOrdering decides Definition 11 literally: an ordering of the nodes
// is good iff for EVERY subset P of nodes that can be connected at all,
// eliminating redundant nodes in that order yields a minimum cover of P.
// Exponential in |V| (every subset is tried, each against the brute-force
// minimum); tiny graphs only.
func IsGoodOrdering(g *graph.Graph, order []int) bool {
	_, ok := FindGoodOrderingViolation(g, order)
	return !ok
}

// FindGoodOrderingViolation returns a terminal set on which the ordering's
// elimination misses the minimum cover, if any.
func FindGoodOrderingViolation(g *graph.Graph, order []int) (intset.Set, bool) {
	n := g.N()
	if n > 16 {
		panic("reference.IsGoodOrdering: instance too large")
	}
	for mask := uint64(1); mask < 1<<uint(n); mask++ {
		var terms []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				terms = append(terms, v)
			}
		}
		want, ok := MinimumCover(g, terms)
		if !ok {
			continue // P not connectable; Definition 11 is vacuous here
		}
		got := eliminateOrdered(g, terms, order)
		if got.Len() != want.Len() {
			return intset.FromSlice(terms), true
		}
	}
	return nil, false
}

// eliminateOrdered mirrors steiner.EliminateOrderedFrozen (single pass,
// relaxed cover test, restriction to the terminals' component) without
// importing it — reference must not depend on the package it certifies.
func eliminateOrdered(g *graph.Graph, terminals []int, order []int) intset.Set {
	comp := g.ComponentContaining(terminals)
	alive := make([]bool, g.N())
	for _, v := range comp {
		alive[v] = true
	}
	p := intset.FromSlice(terminals)
	for _, v := range order {
		if v < 0 || v >= g.N() || !alive[v] || p.Contains(v) {
			continue
		}
		alive[v] = false
		if !g.TerminalsConnected(alive, terminals) {
			alive[v] = true
		}
	}
	dist := g.BFSDistancesAlive(terminals[0], alive)
	var out []int
	for v := range alive {
		if alive[v] && dist[v] >= 0 {
			out = append(out, v)
		}
	}
	return intset.FromSlice(out)
}
