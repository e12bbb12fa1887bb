package hypergraph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/reference"
)

// oracleCorpus returns 6,000 hypergraphs for the oracle comparisons: small
// random ones (mostly cyclic), random interval hypergraphs (β-acyclic, so
// elimination runs to the end through long worklist chains), and the
// generator families, up to a few hundred nodes.
func oracleCorpus() []*hypergraph.Hypergraph {
	r := rand.New(rand.NewSource(16))
	var out []*hypergraph.Hypergraph
	for i := 0; i < 6000; i++ {
		switch i % 6 {
		case 0, 1:
			out = append(out, gen.RandomHypergraph(r, 3+r.Intn(8), 2+r.Intn(8), 2+r.Intn(4)))
		case 2:
			out = append(out, intervals(r, 2+r.Intn(40), 1+r.Intn(30)))
		case 3:
			out = append(out, gen.WithSubsetEdges(r, gen.AlphaAcyclic(r, 2+r.Intn(30), 3, 3), r.Intn(6)))
		case 4:
			out = append(out, gen.GammaAcyclic(r, 2+r.Intn(60), 3, 3))
		default:
			out = append(out, gen.RandomHypergraph(r, 10+r.Intn(30), 5+r.Intn(30), 2+r.Intn(4)))
		}
	}
	return out
}

// intervals returns m random intervals of n points on a line; interval
// hypergraphs are β-acyclic (the leftmost point is always a nest point).
func intervals(r *rand.Rand, n, m int) *hypergraph.Hypergraph {
	h := hypergraph.New()
	for v := 0; v < n; v++ {
		h.AddNode(fmt.Sprint("p", v))
	}
	for i := 0; i < m; i++ {
		lo := r.Intn(n)
		hi := lo + r.Intn(n-lo)
		var nodes []int
		for v := lo; v <= hi; v++ {
			nodes = append(nodes, v)
		}
		h.AddEdge(fmt.Sprint("i", i), nodes...)
	}
	return h
}

// TestBetaCoreMatchesNestPointOracle holds the worklist elimination to the
// rescan-everything oracle. Both stop at the same node set whatever order
// they delete in, so the stuck nodes must be equal, not just the verdict.
func TestBetaCoreMatchesNestPointOracle(t *testing.T) {
	acyclic := 0
	for i, h := range oracleCorpus() {
		got, want := h.BetaCore(), reference.NestPointCore(h)
		if !slices.Equal(got, want) {
			t.Fatalf("hypergraph %d %v: worklist core %v, oracle core %v", i, h, got, want)
		}
		if h.BetaAcyclic() != (len(want) == 0) {
			t.Fatalf("hypergraph %d: BetaAcyclic disagrees with its core", i)
		}
		if len(want) == 0 {
			acyclic++
		}
	}
	t.Logf("%d of 6000 β-acyclic", acyclic)
	if acyclic < 1000 || 6000-acyclic < 1000 {
		t.Fatalf("corpus is lopsided: %d of 6000 β-acyclic", acyclic)
	}
}

// TestFindGammaTriangleMatchesScan holds the intersecting-pairs triangle
// scan to the all-triples scan: the same witness, edge for edge and node
// for node.
func TestFindGammaTriangleMatchesScan(t *testing.T) {
	found := 0
	for i, h := range oracleCorpus() {
		got, want := h.FindGammaTriangle(), reference.GammaTriangleScan(h)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hypergraph %d %v: triangle %+v, all-triples scan %+v", i, h, got, want)
		}
		if want != nil {
			found++
		}
	}
	t.Logf("%d of 6000 with a special triangle", found)
	if found < 1000 || 6000-found < 1000 {
		t.Fatalf("corpus is lopsided: %d of 6000 with a special triangle", found)
	}
}
