package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// hardInstance returns a scheme with no polynomial guarantee plus a
// terminal set large enough that the exact Dreyfus–Wagner program would
// grind through millions of subset states — the workload a deadline must
// be able to cut short.
func hardInstance(t *testing.T) (*core.Connector, []int) {
	t.Helper()
	b := gen.GridBipartite(8, 8)
	c := core.New(b, core.WithExactLimit(20))
	if c.Class().Chordal62 || c.Class().AlphaV1() {
		t.Fatal("grid should have no polynomial guarantee")
	}
	terms := make([]int, 0, 16)
	for v := 0; v < b.N() && len(terms) < 16; v += 2 {
		terms = append(terms, v)
	}
	return c, terms
}

// TestConnectExpiredDeadline is the acceptance check of the v2 contract: a
// Connect whose deadline already passed must return
// context.DeadlineExceeded promptly instead of running the full
// exponential search (which would take far longer than the test timeout on
// this instance).
func TestConnectExpiredDeadline(t *testing.T) {
	c, terms := hardInstance(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	start := time.Now()
	_, err := c.Connect(ctx, terms)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("expired deadline took %v to surface", elapsed)
	}
}

// TestConnectMidFlightDeadline arms a deadline short enough to fire inside
// the exact DP and asserts the solver notices it from within its subset
// loop (rather than only at the boundary).
func TestConnectMidFlightDeadline(t *testing.T) {
	c, terms := hardInstance(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := c.Connect(ctx, terms)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("mid-flight deadline took %v to surface", elapsed)
	}
}

// TestConnectCancel asserts explicit cancellation surfaces as
// context.Canceled through the same path.
func TestConnectCancel(t *testing.T) {
	c, terms := hardInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Connect(ctx, terms); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestServiceDoesNotCacheDeadlineErrors asserts a cancellation outcome is
// not served to later callers with healthy contexts.
func TestServiceDoesNotCacheDeadlineErrors(t *testing.T) {
	c, terms := hardInstance(t)
	svc := core.NewService(c)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := svc.Connect(expired, terms); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if st := svc.Stats(); st.Entries != 0 {
		t.Fatalf("deadline error left a cache entry: %+v", st)
	}
	// A healthy caller on a *small* variant of the query must compute, not
	// inherit the dead entry; use few terminals so it finishes quickly.
	small := terms[:2]
	if _, err := svc.Connect(context.Background(), small); err != nil {
		t.Fatalf("healthy query failed after deadline miss: %v", err)
	}
}

// TestServiceMidFlightDeadlineReconciles cuts a computation down mid-DP
// through the Service and asserts the cancellation path keeps the
// CacheStats algebra exact: the miss inserted an entry, the removal took
// it back out, and nothing else moved. (The expired-deadline path in the
// test above never reaches the cache at all, so this is the only route to
// a nonzero Removals outside a panic.)
func TestServiceMidFlightDeadlineReconciles(t *testing.T) {
	c, terms := hardInstance(t)
	svc := core.NewService(c)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := svc.Connect(ctx, terms); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	st := svc.Stats()
	if st.Misses != 1 || st.Removals != 1 || st.Entries != 0 {
		t.Fatalf("after mid-flight deadline: %+v, want 1 miss, 1 removal, 0 entries", st)
	}
	assertStatsReconcile(t, st, 1)
}

// TestInterpretationsHonorContext covers the second exponential loop of
// the v2 contract: the ranked-cover enumeration.
func TestInterpretationsHonorContext(t *testing.T) {
	c, terms := hardInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Interpretations(ctx, terms[:4], c.Frozen().N(), 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
