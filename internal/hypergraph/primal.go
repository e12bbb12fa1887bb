package hypergraph

import (
	"repro/internal/graph"
	"repro/internal/intset"
)

// PrimalGraph returns G(H), the graph with the same nodes as h and an arc
// between every pair of nodes that are together in some edge
// (Definition 7). Node ids and labels are preserved.
func (h *Hypergraph) PrimalGraph() *graph.Graph {
	g := graph.NewWithNodes(h.nodeLabels...)
	for _, e := range h.edges {
		for i := 0; i < len(e); i++ {
			for j := i + 1; j < len(e); j++ {
				g.AddEdge(e[i], e[j])
			}
		}
	}
	return g
}

// Conformal reports whether h is conformal: every clique of G(H) is
// contained in some edge of h (Definition 7). primalChordal must be the
// chordality verdict of G(H); a caller classifying a scheme computes it
// anyway (V1/V2-chordality), so it is passed in, not recomputed here.
//
// By Beeri, Fagin, Maier and Yannakakis (JACM 1983), h is α-acyclic iff
// G(H) is chordal and h is conformal. So when G(H) is chordal, h is
// conformal exactly when it is α-acyclic, and GYO reduction decides that
// (AlphaAcyclic). Only a non-chordal G(H) runs Gilmore's criterion (see
// ConformalWitness), a scan of O(m³) edge triples with an O(m) covering
// search each.
func (h *Hypergraph) Conformal(primalChordal bool) bool {
	if primalChordal {
		return h.AlphaAcyclic()
	}
	return h.ConformalWitness() == nil
}

// ConformalWitness returns a clique of G(H) contained in no edge of h, or
// nil if h is conformal.
//
// It runs Gilmore's criterion (Berge, "Graphs and Hypergraphs"): h is
// conformal iff for every three edges e1, e2, e3 some edge contains
// (e1∩e2) ∪ (e2∩e3) ∪ (e3∩e1). Pairs and singletons are trivially covered,
// so the triple condition is complete. The scan is O(m³) set operations
// plus a covering search per triple; Conformal calls it only when G(H) is
// not chordal.
func (h *Hypergraph) ConformalWitness() intset.Set {
	w, ok := h.conformalCounterexample()
	if !ok {
		return nil
	}
	return w
}

func (h *Hypergraph) conformalCounterexample() (intset.Set, bool) {
	m := h.M()
	for a := 0; a < m; a++ {
		for b := a; b < m; b++ {
			ab := h.edges[a].Inter(h.edges[b])
			if ab.Empty() {
				continue
			}
			for c := b; c < m; c++ {
				u := ab.Union(h.edges[b].Inter(h.edges[c])).Union(h.edges[a].Inter(h.edges[c]))
				if u.Len() <= 1 {
					continue
				}
				covered := false
				for _, e := range h.edges {
					if u.SubsetOf(e) {
						covered = true
						break
					}
				}
				if !covered {
					// u is a clique of G(H): every pair of its nodes shares
					// one of e_a, e_b, e_c.
					return u, true
				}
			}
		}
	}
	return nil, false
}
