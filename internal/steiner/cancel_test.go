package steiner_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/steiner"
)

// TestFrozenSolversCancelled runs every frozen solver under an already-
// cancelled context and asserts the ctx error surfaces (errors.Is-
// testable) instead of a full solve.
func TestFrozenSolversCancelled(t *testing.T) {
	b := gen.GridBipartite(6, 6)
	fb := b.Freeze()
	fg := fb.G()
	terms := []int{0, fg.N() - 1, fg.N() / 2}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := steiner.Algorithm2Frozen(cancelled, fg, terms); !errors.Is(err, context.Canceled) {
		t.Errorf("Algorithm2Frozen: %v", err)
	}
	if _, err := steiner.EliminateOrderedFrozen(cancelled, fg, terms, []int{0, 1, 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("EliminateOrderedFrozen: %v", err)
	}
	if _, err := steiner.ExactFrozen(cancelled, fg, terms); !errors.Is(err, context.Canceled) {
		t.Errorf("ExactFrozen: %v", err)
	}
	if _, err := steiner.ApproximateFrozen(cancelled, fg, terms); !errors.Is(err, context.Canceled) {
		t.Errorf("ApproximateFrozen: %v", err)
	}
	if _, err := steiner.RankedCovers(cancelled, fg, terms, b.N(), 5); !errors.Is(err, context.Canceled) {
		t.Errorf("RankedCovers: %v", err)
	}
	// Algorithm1Frozen rejects the grid before its elimination loop (not
	// alpha-acyclic), so exercise it on a scheme it accepts.
	ab := gen.GridBipartite(1, 9) // a path: trivially alpha-acyclic
	afb := ab.Freeze()
	if _, err := steiner.Algorithm1Frozen(cancelled, afb, []int{0, ab.N() - 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("Algorithm1Frozen: %v", err)
	}
}

// TestExactFrozenDeadlineInsideDP arms a deadline that can only fire once
// the Dreyfus–Wagner subset loop is underway and asserts it is honored
// from inside the loop.
func TestExactFrozenDeadlineInsideDP(t *testing.T) {
	fg := gen.GridBipartite(8, 8).Freeze().G()
	terms := make([]int, 0, 16)
	for v := 0; v < fg.N() && len(terms) < 16; v += 2 {
		terms = append(terms, v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := steiner.ExactFrozen(ctx, fg, terms); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSentinelErrors pins the new typed sentinels of the solver layer.
func TestSentinelErrors(t *testing.T) {
	fg := gen.GridBipartite(5, 5).Freeze().G()
	ctx := context.Background()
	if _, err := steiner.ExactFrozen(ctx, fg, nil); !errors.Is(err, steiner.ErrEmptyTerminals) {
		t.Errorf("empty terminals: %v", err)
	}
	tooMany := make([]int, steiner.ExactTerminalLimit+1)
	for i := range tooMany {
		tooMany[i] = i // distinct ids, all within the 25-node grid
	}
	if _, err := steiner.ExactFrozen(ctx, fg, tooMany); !errors.Is(err, steiner.ErrTooManyTerminals) {
		t.Errorf("too many terminals: %v", err)
	}
}
