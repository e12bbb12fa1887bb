package core

import (
	"context"
	"testing"

	"repro/internal/bipartite"
)

// tinyScheme is a two-attribute, one-relation scheme: the cheapest
// possible computation, so these tests exercise the cache bookkeeping and
// not the solver.
func tinyScheme() *bipartite.Graph {
	b := bipartite.New()
	e := b.AddV1("ename")
	f := b.AddV1("floor")
	w := b.AddV2("works")
	b.AddEdge(e, w)
	b.AddEdge(f, w)
	return b
}

// panicCtx is a live context whose Err panics on every call after the
// first. Service.Connect checks ctx once before touching the cache, so
// the first call passes and the panic fires inside the compute region,
// at the connector's own cancellation check. Single-goroutine use only.
type panicCtx struct {
	context.Context
	calls int
}

func (c *panicCtx) Err() error {
	c.calls++
	if c.calls > 1 {
		panic("injected")
	}
	return nil
}

// TestPanicPathReconciles drives the one compute path that no real
// caller reaches — a panic inside the computation — through a context
// whose Err panics once the pre-cache check has passed. The recovery must
// evict the half-built entry, count it as a removal so the residency
// algebra still reconciles, and leave the key clean for the next caller.
func TestPanicPathReconciles(t *testing.T) {
	svc := NewService(New(tinyScheme()))
	terms := []int{0, 1}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panicking computation did not propagate")
			}
		}()
		_, _ = svc.Connect(&panicCtx{Context: context.Background()}, terms)
	}()

	st := svc.Stats()
	if st.Misses != 1 || st.Removals != 1 || st.Entries != 0 {
		t.Fatalf("after panic: %+v, want 1 miss, 1 removal, 0 entries", st)
	}
	if st.Hits+st.Misses+st.Bypasses != 1 {
		t.Fatalf("lookup accounting off after panic: %+v", st)
	}
	if uint64(st.Entries) != st.Misses-st.Evictions-st.Removals {
		t.Fatalf("residency accounting off after panic: %+v", st)
	}

	// The key must not stay poisoned: the same query computes fresh.
	if _, err := svc.Connect(context.Background(), terms); err != nil {
		t.Fatalf("query after panic recovery failed: %v", err)
	}
	st = svc.Stats()
	if st.Misses != 2 || st.Entries != 1 || st.Removals != 1 {
		t.Fatalf("after retry: %+v, want 2 misses, 1 entry, 1 removal", st)
	}
}
