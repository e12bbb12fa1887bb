package chordality

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intset"
	"repro/internal/reference"
)

// TestClassifyFrozenMatchesMutable holds every verdict of ClassifyFrozen to
// the per-property recognizers, which build the Definition 2 hypergraphs
// from the mutable scheme.
func TestClassifyFrozenMatchesMutable(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var cases []*bipartite.Graph
	for trial := 0; trial < 12; trial++ {
		cases = append(cases, gen.RandomBipartite(r, 2+r.Intn(9), 2+r.Intn(9), 0.3))
	}
	for m := 4; m <= 12; m += 4 {
		cases = append(cases,
			bipartite.FromHypergraph(gen.AlphaAcyclic(r, m, 3, 2)).B,
			bipartite.FromHypergraph(gen.GammaAcyclic(r, m, 3, 2)).B,
			bipartite.FromHypergraph(gen.BergeForest(r, m, 3)).B,
		)
	}
	cases = append(cases, gen.RandomTree(r, 9), gen.CompleteBipartite(3, 4), gen.GridBipartite(3, 3))
	for i, b := range cases {
		want := Class{
			Chordal41:   Is41Chordal(b),
			Chordal62:   Is62Chordal(b),
			Chordal61:   Is61Chordal(b),
			V1Chordal:   IsV1Chordal(b),
			V1Conformal: IsV1Conformal(b),
			V2Chordal:   IsV2Chordal(b),
			V2Conformal: IsV2Conformal(b),
		}
		if got := ClassifyFrozen(b.Freeze()); got != want {
			t.Errorf("case %d: ClassifyFrozen = %+v, per-property recognizers = %+v", i, got, want)
		}
	}
}

// TestFrozenPEOMatchesMutable holds the frozen MCS and perfect-elimination
// pass to the brute-force chordality definition: the ordering exists
// exactly on chordal graphs, MCS visits every node once, and a returned
// ordering really is a perfect elimination ordering.
func TestFrozenPEOMatchesMutable(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		// At most 9 nodes: the brute-force oracle enumerates cycles.
		var g = gen.RandomGraph(r, 3+r.Intn(7), 0.3)
		if trial%3 == 0 {
			g = gen.RandomChordalGraph(r, 3+r.Intn(7), 3)
		}
		f := g.Freeze()
		peo, ok := PerfectEliminationOrderFrozen(f)
		if want := reference.IsChordalGraph(g); ok != want {
			t.Fatalf("trial %d: PEO exists = %v, brute-force chordal = %v", trial, ok, want)
		}
		if IsChordalFrozen(f) != ok {
			t.Fatalf("trial %d: IsChordalFrozen disagrees with the PEO pass", trial)
		}
		if mcs := MCSOrderFrozen(f); intset.FromSlice(mcs).Len() != g.N() || len(mcs) != g.N() {
			t.Fatalf("trial %d: MCS order %v is not a permutation", trial, mcs)
		}
		if !ok {
			continue
		}
		pos := make([]int, g.N())
		for i, v := range peo {
			pos[v] = i
		}
		for _, v := range peo {
			for _, u := range g.Neighbors(v) {
				for _, w := range g.Neighbors(v) {
					if pos[u] > pos[v] && pos[w] > pos[u] && !g.HasEdge(u, w) {
						t.Fatalf("trial %d: later neighbours %d, %d of %d are not adjacent", trial, u, w, v)
					}
				}
			}
		}
	}
}

// TestMCSOrderMatchesScan holds the bucket-queue MCS to the direct
// definition — each step scans every unvisited node for the most visited
// neighbours, lowest id first — order for order, on sparse, dense,
// disconnected and chordal graphs.
func TestMCSOrderMatchesScan(t *testing.T) {
	scan := func(f *graph.Frozen) []int {
		n := f.N()
		weight := make([]int, n)
		visited := make([]bool, n)
		var order []int
		for len(order) < n {
			best := -1
			for v := 0; v < n; v++ {
				if !visited[v] && (best == -1 || weight[v] > weight[best]) {
					best = v
				}
			}
			visited[best] = true
			order = append(order, best)
			for _, w := range f.Neighbors(best) {
				weight[w]++
			}
		}
		return order
	}
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(120)
		g := gen.RandomGraph(r, n, []float64{0.01, 0.05, 0.3, 0.9}[trial%4])
		if trial%5 == 0 {
			g = gen.RandomChordalGraph(r, n, 1+r.Intn(4))
		}
		f := g.Freeze()
		if got, want := MCSOrderFrozen(f), scan(f); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): bucket queue %v, scan %v", trial, n, got, want)
		}
	}
}
