package steiner_test

// Word-boundary sweeps for the bit-parallel solver paths: every packed
// mask the solvers carry (alive, terminal, visited) has its off-by-one
// bugs at the 64-bit word seams, so the golden sweep is pinned at node
// counts straddling them — a partially filled single word, exact word
// multiples, and one-past. Each size runs against both the matrix-backed
// frozen view and a matrix-stripped CSR view, so the wave kernel and the
// fallback are held to the recorded answers at every seam.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/steiner"
)

// stripMatrix rebuilds the frozen views without the dense adjacency
// matrix, forcing every kernel call through the CSR fallback.
func stripMatrix(tb testing.TB, fb *bipartite.Frozen) (*graph.Frozen, *bipartite.Frozen) {
	fg := fb.G()
	offsets, neighbors := fg.CSR()
	gc, err := graph.RestoreFrozen(fg.NodeLabels(), offsets, neighbors, nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	fbc, err := bipartite.RestoreFrozen(gc, fb.Sides())
	if err != nil {
		tb.Fatal(err)
	}
	return gc, fbc
}

func TestFrozenSolversAtWordBoundaries(t *testing.T) {
	for _, n := range solverBoundarySizes {
		fb := boundaryScheme(rand.New(rand.NewSource(int64(n))), n).Freeze()
		fgCSR, _ := stripMatrix(t, fb)
		if !fb.G().HasMatrix() && n > 1 || fgCSR.HasMatrix() {
			t.Fatalf("n=%d: matrix presence wrong", n)
		}
	}
	checkGolden(t, "boundary.golden", boundaryQueries())
}

// TestPooledScratchHammerAcrossSizes cycles many goroutines through
// schemes of different word-boundary sizes, so the pooled solver scratch
// is constantly resized across word seams while shared between queries.
// Under -race this pins both the pool's ownership discipline and the
// stale-word hygiene of recycled masks (a scratch shrunk from 129 to 63
// nodes must not leak bits of the larger scheme into the smaller one).
func TestPooledScratchHammerAcrossSizes(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	type testCase struct {
		fg    *graph.Frozen
		terms []int
		want  steiner.Tree
	}
	var cases []testCase
	for _, n := range solverBoundarySizes {
		b := boundaryScheme(r, n)
		fg := b.Freeze().G()
		for _, terms := range terminalSets(r, n) {
			if want, err := steiner.Algorithm2Frozen(ctx, fg, terms); err == nil {
				cases = append(cases, testCase{fg: fg, terms: terms, want: want})
			}
		}
	}
	if len(cases) == 0 {
		t.Fatal("no connected boundary cases")
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var tree steiner.Tree // recycled across sizes, like a server would
			for i := 0; i < 40; i++ {
				c := cases[(seed+i)%len(cases)]
				if err := steiner.Algorithm2FrozenInto(ctx, c.fg, c.terms, &tree); err != nil {
					errc <- fmt.Errorf("hammer: %v", err)
					return
				}
				if !tree.Nodes.Equal(c.want.Nodes) {
					errc <- fmt.Errorf("hammer: nodes differ on n=%d", c.fg.N())
					return
				}
				if _, err := steiner.ApproximateFrozen(ctx, c.fg, c.terms); err != nil {
					errc <- fmt.Errorf("hammer approximate: %v", err)
					return
				}
			}
		}(w * 7)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
