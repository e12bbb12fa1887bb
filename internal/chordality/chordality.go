// Package chordality implements the paper's graph-side recognizers:
// chordal graphs (via maximum cardinality search and perfect-elimination
// verification), the three bipartite (m,n)-chordality classes of
// Definition 4 — (4,1), (6,2) and (6,1) — and the asymmetric V1/V2
// chordality and conformity classes of Definition 5.
//
// The bipartite recognizers go through Theorem 1's correspondence with
// hypergraph acyclicity, which yields polynomial tests:
//
//	(4,1)-chordal ⟺ H¹G Berge-acyclic ⟺ G is a forest
//	(6,2)-chordal ⟺ H¹G γ-acyclic
//	(6,1)-chordal ⟺ H¹G β-acyclic
//	V1-chordal    ⟺ G(H¹G) chordal        (Fact (a) in Theorem 1's proof)
//	V1-conformal  ⟺ H¹G conformal         (Fact (b))
//	V1-chordal ∧ V1-conformal ⟺ H¹G α-acyclic
//
// ClassifyFrozen computes each verdict once, near-linearly on sparse
// schemes:
//
//   - primal chordality by maximum cardinality search with a bucket queue
//     (Tarjan & Yannakakis) and a perfect-elimination check;
//   - conformality, given that verdict: on a chordal primal graph it is
//     α-acyclicity (Beeri, Fagin, Maier & Yannakakis), which GYO decides;
//     only a non-chordal one runs Gilmore's triple scan, O(m⁴) set
//     operations;
//   - β-acyclicity by worklist nest-point elimination, shared by (6,1) and
//     (6,2);
//   - the special-triangle half of γ-acyclicity over intersecting edge
//     pairs only.
//
// Each fast test is certified against the literal Definition 4/5 checks of
// internal/reference in this package's tests, and against the plain
// polynomial scans it replaced on inputs too large for the definitions.
package chordality

import (
	"repro/internal/bipartite"
	"repro/internal/graph"
)

// IsChordal reports whether g is chordal ((4,1)-chordal in Definition 4's
// terms: every cycle of length ≥ 4 has a chord). It freezes g and runs
// IsChordalFrozen.
func IsChordal(g *graph.Graph) bool {
	return IsChordalFrozen(g.Freeze())
}

// Is41Chordal reports whether the bipartite graph is (4,1)-chordal: every
// cycle of length ≥ 4 has a chord. For a bipartite graph this holds iff
// the graph has no cycle at all (Theorem 1(i) remark): a shortest cycle is
// chordless and bipartite graphs have no triangles.
func Is41Chordal(b *bipartite.Graph) bool {
	return b.G().IsForest()
}

// Is61Chordal reports whether the bipartite graph is (6,1)-chordal (every
// cycle of length ≥ 6 has at least one chord — G is "chordal bipartite").
// By Theorem 1(iii) this holds iff H¹G is β-acyclic, which nest-point
// elimination decides in polynomial time.
func Is61Chordal(b *bipartite.Graph) bool {
	return b.HypergraphV1().H.BetaAcyclic()
}

// Is62Chordal reports whether the bipartite graph is (6,2)-chordal (every
// cycle of length ≥ 6 has at least two chords). By Theorem 1(ii) this
// holds iff H¹G is γ-acyclic.
func Is62Chordal(b *bipartite.Graph) bool {
	return b.HypergraphV1().H.GammaAcyclic()
}

// IsV1Chordal reports whether the bipartite graph is V1-chordal
// (Definition 5): for every cycle of length ≥ 8 some V2 node is adjacent
// to two cycle nodes at cycle distance ≥ 4. Equivalent to chordality of
// the primal graph of H¹G (Fact (a) in the proof of Theorem 1).
func IsV1Chordal(b *bipartite.Graph) bool {
	return IsChordal(b.HypergraphV1().H.PrimalGraph())
}

// IsV2Chordal is IsV1Chordal with the sides swapped.
func IsV2Chordal(b *bipartite.Graph) bool {
	return IsV1Chordal(b.Swap())
}

// IsV1Conformal reports whether the bipartite graph is V1-conformal
// (Definition 5): every set of V1 nodes with mutual distance 2 has a
// common V2 neighbour. Equivalent to conformality of H¹G (Fact (b)).
func IsV1Conformal(b *bipartite.Graph) bool {
	h := b.HypergraphV1().H
	return h.Conformal(IsChordal(h.PrimalGraph()))
}

// IsV2Conformal is IsV1Conformal with the sides swapped.
func IsV2Conformal(b *bipartite.Graph) bool {
	return IsV1Conformal(b.Swap())
}

// Class aggregates every recognizer verdict for a bipartite graph; it is
// the classification used by core.Connector to dispatch algorithms.
type Class struct {
	Chordal41   bool // G acyclic ⟺ H¹ Berge-acyclic
	Chordal62   bool // ⟺ H¹ γ-acyclic
	Chordal61   bool // ⟺ H¹ β-acyclic
	V1Chordal   bool
	V1Conformal bool
	V2Chordal   bool
	V2Conformal bool
}

// AlphaV1 reports whether H¹G is α-acyclic (V1-chordal ∧ V1-conformal,
// Theorem 1(v)) — the precondition of Algorithm 1 for pseudo-Steiner with
// respect to V2.
func (c Class) AlphaV1() bool { return c.V1Chordal && c.V1Conformal }

// AlphaV2 reports whether H²G is α-acyclic (Theorem 1(vi)).
func (c Class) AlphaV2() bool { return c.V2Chordal && c.V2Conformal }

// Classify runs every recognizer on b. It freezes b and runs
// ClassifyFrozen.
func Classify(b *bipartite.Graph) Class {
	return ClassifyFrozen(b.Freeze())
}
