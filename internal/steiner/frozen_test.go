package steiner_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/steiner"
)

// ctx is the no-deadline context of the equivalence sweeps (cancellation
// has its own tests in cancel_test.go).
var ctx = context.Background()

// solveFrozen runs the frozen solver a golden query names.
func solveFrozen(fb *bipartite.Frozen, q goldenQuery) (steiner.Tree, error) {
	fg := fb.G()
	switch q.solver {
	case "Algorithm1":
		return steiner.Algorithm1Frozen(ctx, fb, q.terms)
	case "Algorithm2":
		return steiner.Algorithm2Frozen(ctx, fg, q.terms)
	case "EliminateOrdered":
		return steiner.EliminateOrderedFrozen(ctx, fg, q.terms, q.order)
	case "Exact":
		return steiner.ExactFrozen(ctx, fg, q.terms)
	case "Approximate":
		return steiner.ApproximateFrozen(ctx, fg, q.terms)
	case "Algorithm1WithOrder":
		return steiner.Algorithm1WithOrder(ctx, fb, q.terms, q.order)
	case "EliminateOrderedStrict":
		return steiner.EliminateOrderedStrict(ctx, fg, q.terms, q.order)
	}
	panic("unknown solver " + q.solver)
}

// checkGolden runs every query on the matrix-backed frozen view of its
// scheme and on a matrix-stripped CSR view, and compares both answers
// with the golden line recorded for the query. The frozen path must
// reproduce the recorded answers bit for bit, errors included, not merely
// up to optimality.
func checkGolden(t *testing.T, file string, queries []goldenQuery) {
	t.Helper()
	lines := readGolden(t, file)
	if len(lines) != len(queries) {
		t.Fatalf("%s: %d golden lines for %d queries", file, len(lines), len(queries))
	}
	var scheme *bipartite.Graph
	var views [2]*bipartite.Frozen
	for i, q := range queries {
		if q.b != scheme {
			scheme = q.b
			views[0] = q.b.Freeze()
			_, views[1] = stripMatrix(t, views[0])
		}
		key := q.key() + "\t"
		want, ok := strings.CutPrefix(lines[i], key)
		if !ok {
			t.Fatalf("%s:%d: input drift: golden line %.200q, query %.200q", file, i+1, lines[i], key)
		}
		for vi, view := range []string{"matrix", "csr"} {
			if got := formatAnswer(solveFrozen(views[vi], q)); got != want {
				t.Errorf("%s:%d: %s %s terms=%v on %s view:\n got    %s\n golden %s",
					file, i+1, q.solver, q.name, q.terms, view, got, want)
			}
		}
	}
}

func TestAlgorithm2FrozenMatchesMutableOnFixtures(t *testing.T) {
	checkGolden(t, "fixtures_algorithm2.golden", fixtureQueries(51, "Algorithm2"))
}

func TestAlgorithm1FrozenMatchesMutableOnFixtures(t *testing.T) {
	checkGolden(t, "fixtures_algorithm1.golden", fixtureQueries(53, "Algorithm1"))
}

func TestFrozenSolversMatchMutableRandom(t *testing.T) {
	checkGolden(t, "random.golden", randomQueries())
}

func TestFrozenSolverErrors(t *testing.T) {
	// Two disconnected arcs: terminals spanning components must fail the
	// same way in every solver.
	b := bipartite.New()
	a1, a2 := b.AddV1("a1"), b.AddV1("a2")
	r1, r2 := b.AddV2("r1"), b.AddV2("r2")
	b.AddEdge(a1, r1)
	b.AddEdge(a2, r2)
	fb := b.Freeze()
	if _, err := steiner.Algorithm2Frozen(ctx, fb.G(), []int{a1, a2}); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("Algorithm2Frozen across components: %v", err)
	}
	if _, err := steiner.Algorithm1Frozen(ctx, fb, []int{a1, a2}); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("Algorithm1Frozen across components: %v", err)
	}
	if _, err := steiner.ExactFrozen(ctx, fb.G(), []int{a1, a2}); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("ExactFrozen across components: %v", err)
	}
	if _, err := steiner.ApproximateFrozen(ctx, fb.G(), []int{a1, a2}); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("ApproximateFrozen across components: %v", err)
	}
	if _, err := steiner.Algorithm2Frozen(ctx, fb.G(), nil); err == nil {
		t.Error("Algorithm2Frozen on empty terminals should fail")
	}

	// A non-alpha-acyclic component must be rejected by Algorithm 1: H¹ of
	// Fig 8 is cyclic.
	cyc := fixtures.Fig8()
	terms := cyc.G().IDs("A", "C", "D")
	if _, err := steiner.Algorithm1Frozen(ctx, cyc.Freeze(), terms); !errors.Is(err, steiner.ErrNotAlphaAcyclic) {
		t.Errorf("Algorithm1Frozen should reject non-alpha-acyclic component, got %v", err)
	}
}

// TestFrozenSolversConcurrent hammers one frozen scheme from many
// goroutines; run with -race this asserts the advertised immutability.
func TestFrozenSolversConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	b := bipartite.FromHypergraph(gen.GammaAcyclic(r, 30, 3, 3)).B
	fb := b.Freeze()
	fg := fb.G()
	var termSets [][]int
	var wants []steiner.Tree
	for _, terms := range terminalSets(r, fg.N()) {
		if want, err := steiner.Algorithm2Frozen(ctx, fg, terms); err == nil {
			termSets = append(termSets, terms)
			wants = append(wants, want)
		}
	}
	if len(termSets) == 0 {
		t.Fatal("no connected terminal sets")
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int) {
			for i := 0; i < 20; i++ {
				k := (seed + i) % len(termSets)
				got, err := steiner.Algorithm2Frozen(ctx, fg, termSets[k])
				if err != nil {
					done <- err
					return
				}
				if !got.Nodes.Equal(wants[k].Nodes) {
					done <- errors.New("concurrent answer differs from sequential")
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
