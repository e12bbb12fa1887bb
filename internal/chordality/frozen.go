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
//
// The unvisited nodes wait in a bucket queue indexed by weight (Tarjan &
// Yannakakis [12]); each bucket is a min-heap of ids, for the tie-break.
// A node gaining weight is pushed into the next bucket and its old entry
// is left behind, dropped when it surfaces. There are at most n + m
// pushes, so the search costs O(n + m log n), where m counts arcs.
func MCSOrderFrozen(f *graph.Frozen) []int {
	n := f.N()
	weight := make([]int32, n)
	visited := make([]bool, n)
	order := make([]int, 0, n)
	// Bucket 0 starts with every id in increasing order, already a heap.
	first := make(idHeap, n)
	for v := range first {
		first[v] = int32(v)
	}
	buckets := []idHeap{first}
	top := 0
	for len(order) < n {
		for len(buckets[top]) == 0 {
			top--
		}
		v := buckets[top].pop()
		if visited[v] || weight[v] != int32(top) {
			continue
		}
		visited[v] = true
		order = append(order, int(v))
		for _, w := range f.Neighbors(int(v)) {
			if visited[w] {
				continue
			}
			weight[w]++
			k := int(weight[w])
			if k == len(buckets) {
				buckets = append(buckets, nil)
			}
			buckets[k].push(w)
			top = max(top, k)
		}
	}
	return order
}

// idHeap is a binary min-heap of node ids.
type idHeap []int32

func (h *idHeap) push(v int32) {
	a := append(*h, v)
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func (h *idHeap) pop() int32 {
	a := *h
	v := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && a[c+1] < a[c] {
			c++
		}
		if a[i] <= a[c] {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return v
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

// ClassifyFrozen runs every recognizer on the frozen scheme. Each verdict
// is computed once: β-acyclicity of H¹ feeds both Chordal61 and Chordal62,
// and each primal-chordality verdict feeds the matching conformality test,
// which then needs Gilmore's scan only when the primal graph is not
// chordal (see hypergraph.Conformal).
func ClassifyFrozen(fb *bipartite.Frozen) Class {
	h1 := fb.HypergraphV1().H
	h2 := fb.HypergraphV2().H
	v1Chordal := IsChordalFrozen(h1.PrimalGraph().Freeze())
	v2Chordal := IsChordalFrozen(h2.PrimalGraph().Freeze())
	beta := h1.BetaAcyclic()
	return Class{
		Chordal41:   fb.G().IsForest(),
		Chordal62:   beta && h1.FindGammaTriangle() == nil,
		Chordal61:   beta,
		V1Chordal:   v1Chordal,
		V1Conformal: h1.Conformal(v1Chordal),
		V2Chordal:   v2Chordal,
		V2Conformal: h2.Conformal(v2Chordal),
	}
}
