// Package steiner implements Section 3 of the paper: minimum covers and
// Steiner/pseudo-Steiner trees on (bipartite) graphs.
//
//   - Algorithm 2 (Theorem 5): node-minimum Steiner trees on (6,2)-chordal
//     bipartite graphs by single-pass redundant-node elimination, in
//     O(|V|·|A|); the same elimination pass parameterized by an arbitrary
//     ordering implements the "good ordering" machinery of Definition 11 and
//     Corollary 5.
//   - Algorithm 1 (Theorem 3): pseudo-Steiner trees with respect to V2 on
//     V1-chordal, V1-conformal bipartite graphs, via the running-intersection
//     elimination ordering of Lemma 1.
//   - Exact baselines: the Dreyfus–Wagner dynamic program (exponential in the
//     number of terminals) for the node-minimum Steiner problem.
//   - A metric-closure 2-approximation heuristic, used as the fallback where
//     the paper proves NP-hardness.
//   - The paper's two NP-hardness reductions (Theorem 2's X3C gadget, Fig 6,
//     and the CSPC gadget of the remarks after Corollary 4, Fig 9).
//
// Every solver runs on the immutable graph.Frozen view (Algorithm2Frozen,
// Algorithm1Frozen, ExactFrozen, ...): connectivity probes and BFS go
// through the bit-parallel wave kernels when the view carries a compiled
// adjacency matrix (falling back to CSR walks otherwise), and all
// per-query scratch — alive/terminal masks, distance rows, the flat
// Dreyfus–Wagner tables — is drawn from a sync.Pool. Algorithm2FrozenInto
// additionally reuses the caller's Tree capacity, making steady-state
// queries allocation-free. Callers holding a mutable graph freeze it once
// and query the frozen view. The golden files under testdata/ pin every
// solver's answers, errors included, on matrix-backed and CSR views.
package steiner
