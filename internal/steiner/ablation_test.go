package steiner_test

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/reference"
	"repro/internal/steiner"
)

func TestAlgorithm1WithOrderProducesValidTrees(t *testing.T) {
	r := rand.New(rand.NewSource(301))
	for iter := 0; iter < 60; iter++ {
		h := gen.WithSubsetEdges(r, gen.AlphaAcyclic(r, 3+r.Intn(4), 3, 2), 2)
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() || g.N() < 3 {
			continue
		}
		terms := r.Perm(g.N())[:2]
		tree, err := steiner.Algorithm1WithOrder(ctx, b.Freeze(), terms, r.Perm(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(g, terms); err != nil {
			t.Fatalf("invalid tree: %v", err)
		}
		// A random order may be suboptimal but never better than optimal.
		if got, want := steiner.V2Count(b, tree), reference.MinimumV2Count(b, terms); got < want {
			t.Fatalf("impossible: %d < optimum %d", got, want)
		}
	}
}

// orderingSensitiveInstance is the documented failure shape: a subsumed
// edge e0 ⊆ e1 plus a shortcut, where removal order decides optimality.
func orderingSensitiveInstance() (*bipartite.Graph, []int) {
	h := hypergraph.New()
	h.AddEdgeLabels("w1", "a", "x")
	h.AddEdgeLabels("w2", "x", "b")
	h.AddEdgeLabels("w3", "a", "b")
	h.AddEdgeLabels("W", "a", "x", "b")
	b := bipartite.FromHypergraph(h).B
	g := b.G()
	return b, []int{g.MustID("a"), g.MustID("b")}
}

func TestAlgorithm1WithBadOrderIsSuboptimal(t *testing.T) {
	b, terms := orderingSensitiveInstance()
	g := b.G()
	// Removing W then w3 first forces the two-relation route.
	bad := g.IDs("W", "w3", "w1", "w2")
	tree, err := steiner.Algorithm1WithOrder(ctx, b.Freeze(), terms, bad)
	if err != nil {
		t.Fatal(err)
	}
	if got := steiner.V2Count(b, tree); got != 2 {
		t.Fatalf("bad order gave %d V2 nodes, expected the suboptimal 2", got)
	}
	// The proper Algorithm 1 must return the optimum 1.
	tree, err = steiner.Algorithm1Frozen(ctx, b.Freeze(), terms)
	if err != nil {
		t.Fatal(err)
	}
	if got := steiner.V2Count(b, tree); got != 1 {
		t.Fatalf("Algorithm 1 gave %d V2 nodes, want 1", got)
	}
}

func TestEliminateOrderedStrictGetsStuck(t *testing.T) {
	// The documented strict-semantics failure: a tree where an internal
	// node's pendant branch comes later in the ordering. Strict single-pass
	// elimination keeps both; relaxed elimination reaches the optimum.
	h := hypergraph.New()
	h.AddEdgeLabels("e0", "n0")
	h.AddEdgeLabels("e1", "n0", "n1", "n2")
	h.AddEdgeLabels("e2", "n1", "n2", "n3")
	b := bipartite.FromHypergraph(h).B
	g := b.G()
	terms := []int{g.MustID("n3"), g.MustID("n2")}
	// Order: e1 before e0 — strict cannot remove e1 while e0's branch
	// dangles.
	order := g.IDs("n0", "n1", "e1", "e0", "e2")
	strict, err := steiner.EliminateOrderedStrict(ctx, g.Freeze(), terms, order)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := steiner.EliminateOrderedFrozen(ctx, g.Freeze(), terms, order)
	if err != nil {
		t.Fatal(err)
	}
	want := reference.SteinerMinimumNodes(g, terms)
	if relaxed.Nodes.Len() != want {
		t.Fatalf("relaxed = %d, want %d", relaxed.Nodes.Len(), want)
	}
	if strict.Nodes.Len() <= want {
		t.Fatalf("strict = %d; expected it to exceed the optimum %d on this instance",
			strict.Nodes.Len(), want)
	}
}

func TestStrictStillValidCover(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	for iter := 0; iter < 60; iter++ {
		h := gen.GammaAcyclic(r, 2+r.Intn(4), 2, 2)
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() || g.N() < 3 {
			continue
		}
		terms := r.Perm(g.N())[:2]
		tree, err := steiner.EliminateOrderedStrict(ctx, g.Freeze(), terms, r.Perm(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(g, terms); err != nil {
			t.Fatalf("strict produced invalid tree: %v", err)
		}
	}
}
