package reference

import (
	"repro/internal/hypergraph"
	"repro/internal/intset"
)

// The plain polynomial recognizers that hypergraph's fast ones replaced,
// kept as oracles: they rescan everything, so their correctness is easy
// to read, and the tests hold the fast recognizers to them on inputs too
// large for the definitional searches of hypercycles.go.

// NestPointCore runs nest-point elimination the direct way: after each
// deletion it rescans every surviving node for a nest point (a node whose
// edges form an inclusion chain), deleting the first it finds and dropping
// emptied edges. It returns the nodes left when no nest point remains, in
// increasing order — nil iff h is β-acyclic. Nodes in no edge take no
// part. O(n²·m²) set operations.
func NestPointCore(h *hypergraph.Hypergraph) []int {
	var work []intset.Set
	activeSet := map[int]bool{}
	for i := 0; i < h.M(); i++ {
		e := h.Edge(i)
		work = append(work, e.Clone())
		for _, v := range e {
			activeSet[v] = true
		}
	}
	active := intset.FromMap(activeSet)
	for len(active) > 0 {
		eliminated := -1
		for _, v := range active {
			if isNestPoint(work, v) {
				eliminated = v
				break
			}
		}
		if eliminated == -1 {
			return active
		}
		active = active.Remove(eliminated)
		next := work[:0]
		for _, e := range work {
			e = e.Remove(eliminated)
			if !e.Empty() {
				next = append(next, e)
			}
		}
		work = next
	}
	return nil
}

// isNestPoint reports whether the edges containing v are pairwise
// comparable by inclusion.
func isNestPoint(edges []intset.Set, v int) bool {
	var containing []intset.Set
	for _, e := range edges {
		if e.Contains(v) {
			containing = append(containing, e)
		}
	}
	for i := 0; i < len(containing); i++ {
		for j := i + 1; j < len(containing); j++ {
			if !containing[i].SubsetOf(containing[j]) && !containing[j].SubsetOf(containing[i]) {
				return false
			}
		}
	}
	return true
}

// GammaTriangleScan returns the first special triangle over all edge
// triples: e1 < e3 meeting, then every middle edge e2, with the lowest node
// of each intersection as the witness — or nil. O(m³) set operations.
func GammaTriangleScan(h *hypergraph.Hypergraph) *hypergraph.GammaTriangle {
	m := h.M()
	for a := 0; a < m; a++ {
		for c := a + 1; c < m; c++ {
			ac := h.Edge(a).Inter(h.Edge(c))
			if ac.Empty() {
				continue
			}
			for b := 0; b < m; b++ {
				if b == a || b == c {
					continue
				}
				n1s := h.Edge(a).Inter(h.Edge(b)).Diff(h.Edge(c))
				n2s := h.Edge(b).Inter(h.Edge(c)).Diff(h.Edge(a))
				if n1s.Empty() || n2s.Empty() {
					continue
				}
				return &hypergraph.GammaTriangle{E1: a, E2: b, E3: c, N1: n1s[0], N2: n2s[0], N3: ac[0]}
			}
		}
	}
	return nil
}
