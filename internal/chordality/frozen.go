package chordality

import (
	"repro/internal/bipartite"
	"repro/internal/graph"
)

// The recognizers computed off compiled CSR views. MCS and the
// perfect-elimination verification iterate flat adjacency slices and use
// the frozen bitset matrix for the O(1) HasEdge probes that dominate the
// verification; ClassifyFrozen builds both Definition 2 hypergraphs
// straight from the CSR arrays. frozen_test.go holds the verdicts to the
// per-property recognizers of chordality.go and to the brute-force
// definitions of internal/reference.

// IsChordalFrozen reports whether f is chordal: it runs maximum
// cardinality search and verifies that the reverse visit order is a
// perfect elimination ordering — it is iff f is chordal (Tarjan &
// Yannakakis [12]).
func IsChordalFrozen(f *graph.Frozen) bool {
	_, ok := PerfectEliminationOrderFrozen(f)
	return ok
}

// MCSOrderFrozen returns a maximum cardinality search visit order: each
// step visits an unvisited node with the maximum number of visited
// neighbours (ties broken by lowest id, so the order is deterministic).
func MCSOrderFrozen(f *graph.Frozen) []int {
	n := f.N()
	weight := make([]int32, n)
	visited := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		best := -1
		for v := 0; v < n; v++ {
			if visited[v] {
				continue
			}
			if best == -1 || weight[v] > weight[best] {
				best = v
			}
		}
		visited[best] = true
		order = append(order, best)
		for _, w := range f.Neighbors(best) {
			if !visited[w] {
				weight[w]++
			}
		}
	}
	return order
}

// PerfectEliminationOrderFrozen returns a perfect elimination ordering of
// f and true if f is chordal, or nil and false otherwise. The ordering is
// the reverse MCS order; it lists nodes so that each node's later
// neighbours form a clique.
func PerfectEliminationOrderFrozen(f *graph.Frozen) ([]int, bool) {
	mcs := MCSOrderFrozen(f)
	n := f.N()
	peo := make([]int, n)
	for i, v := range mcs {
		peo[n-1-i] = v
	}
	pos := make([]int32, n)
	for i, v := range peo {
		pos[v] = int32(i)
	}
	// Verify: for each v, let w be its earliest later neighbour; all other
	// later neighbours of v must be adjacent to w (Golumbic's linear
	// verification, written quadratically for clarity).
	for _, v := range peo {
		w := -1
		for _, u := range f.Neighbors(v) {
			if pos[u] > pos[v] && (w == -1 || pos[u] < pos[w]) {
				w = int(u)
			}
		}
		if w == -1 {
			continue
		}
		for _, u := range f.Neighbors(v) {
			if pos[u] > pos[v] && int(u) != w && !f.HasEdge(w, int(u)) {
				return nil, false
			}
		}
	}
	return peo, true
}

// ClassifyFrozen runs every recognizer on the frozen scheme.
func ClassifyFrozen(fb *bipartite.Frozen) Class {
	h1 := fb.HypergraphV1().H
	h2 := fb.HypergraphV2().H
	return Class{
		Chordal41:   fb.G().IsForest(),
		Chordal62:   h1.GammaAcyclic(),
		Chordal61:   h1.BetaAcyclic(),
		V1Chordal:   IsChordalFrozen(h1.PrimalGraph().Freeze()),
		V1Conformal: h1.Conformal(),
		V2Chordal:   IsChordalFrozen(h2.PrimalGraph().Freeze()),
		V2Conformal: h2.Conformal(),
	}
}
