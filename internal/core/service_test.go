package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/gen"
)

// sameConnection compares the parts of a Connection that constitute the
// answer.
func sameConnection(a, b core.Connection) bool {
	return a.Method == b.Method && a.Optimal == b.Optimal &&
		a.V2Optimal == b.V2Optimal && a.Tree.Nodes.Equal(b.Tree.Nodes)
}

// exactLRU freezes svc's solve clock and returns svc. A solve that the
// scheduler stretches past ~0.5ms would otherwise earn a cost-aware
// eviction bonus and change the victim; with every cost zero, a
// single-shard cache evicts in exact LRU order, which the eviction tests
// here pin.
func exactLRU(svc *core.Service) *core.Service {
	t0 := time.Now()
	core.SetSolveClock(svc, func() time.Time { return t0 })
	return svc
}

// distinctTerms draws k distinct node ids.
func distinctTerms(r *rand.Rand, n, k int) []int {
	return r.Perm(n)[:k]
}

func TestServiceMatchesConnector(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(71))
	for trial, b := range []*bipartite.Graph{
		fixtures.Fig2(),
		fixtures.Fig3b(),
		fixtures.Fig5(),
		bipartite.FromHypergraph(gen.GammaAcyclic(r, 20, 3, 3)).B,
		gen.RandomConnectedBipartite(r, 6, 6, 0.3),
	} {
		conn := core.New(b)
		svc := core.NewService(conn, core.WithWorkers(4), core.WithCacheSize(64))
		for k := 0; k < 10; k++ {
			terms := distinctTerms(r, b.N(), 2)
			want, wantErr := conn.Connect(ctx, terms)
			got, gotErr := svc.Connect(ctx, terms)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("trial %d: error mismatch: %v vs %v", trial, wantErr, gotErr)
			}
			if wantErr == nil && !sameConnection(want, got) {
				t.Fatalf("trial %d: cached answer differs from direct answer", trial)
			}
			// Second lookup must hit the cache and return the same answer.
			again, againErr := svc.Connect(ctx, terms)
			if (gotErr == nil) != (againErr == nil) || (gotErr == nil && !sameConnection(got, again)) {
				t.Fatalf("trial %d: cache hit returned a different answer", trial)
			}
		}
	}
}

func TestServiceCacheCountsAndEviction(t *testing.T) {
	ctx := context.Background()
	b := fixtures.Fig3b()
	conn := core.New(b)
	// One shard: the test pins *global* LRU counting and eviction, which
	// only a single-shard cache guarantees (capacity 2 forces eviction).
	svc := exactLRU(core.NewService(conn, core.WithWorkers(1), core.WithCacheSize(2), core.WithCacheShards(1)))
	q1 := b.G().IDs("A", "C")
	q2 := b.G().IDs("A", "B")
	q3 := b.G().IDs("B", "C")

	svc.Connect(ctx, q1)
	svc.Connect(ctx, q1) // hit
	st := svc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after warm lookup: %+v", st)
	}
	svc.Connect(ctx, q2)
	svc.Connect(ctx, q3) // evicts q1 (least recently used)
	st = svc.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("capacity not enforced: %+v", st)
	}
	svc.Connect(ctx, q1) // must recompute
	st = svc.Stats()
	if st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("evicted entry should have missed: %+v", st)
	}

	// Terminal-set canonicalization: order does not matter.
	svc.Connect(ctx, []int{q1[1], q1[0]})
	if got := svc.Stats().Hits; got != 2 {
		t.Fatalf("permuted query should hit the cache, hits=%d", got)
	}
}

// TestServiceLRUEvictionOrder pins the eviction policy: capacity pressure
// drops the least recently *used* entry, where a cache hit refreshes
// recency.
func TestServiceLRUEvictionOrder(t *testing.T) {
	ctx := context.Background()
	b := fixtures.Fig3b()
	// One shard: eviction order is only globally-LRU when one list holds
	// every entry.
	svc := exactLRU(core.NewService(core.New(b), core.WithCacheSize(2), core.WithCacheShards(1)))
	q1 := b.G().IDs("A", "C")
	q2 := b.G().IDs("A", "B")
	q3 := b.G().IDs("B", "C")

	svc.Connect(ctx, q1)
	svc.Connect(ctx, q2)
	svc.Connect(ctx, q1) // refresh q1: q2 is now the LRU entry
	svc.Connect(ctx, q3) // evicts q2, not q1
	st := svc.Stats()    // so far: 2 hits? no — q1 twice (1 hit), q2, q3
	if st.Evictions != 1 {
		t.Fatalf("expected exactly one eviction: %+v", st)
	}
	misses := st.Misses
	svc.Connect(ctx, q1) // must still be resident
	if got := svc.Stats(); got.Misses != misses {
		t.Fatalf("q1 was evicted despite being most recently used: %+v", got)
	}
	svc.Connect(ctx, q2) // must have been evicted
	if got := svc.Stats(); got.Misses != misses+1 {
		t.Fatalf("q2 should have been the LRU victim: %+v", got)
	}
}

// TestServiceCacheBypass asserts WithCacheBypass answers correctly without
// reading or writing the cache.
func TestServiceCacheBypass(t *testing.T) {
	ctx := context.Background()
	b := fixtures.Fig3b()
	conn := core.New(b)
	svc := core.NewService(conn)
	q := b.G().IDs("A", "C")

	want, err := conn.Connect(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.Connect(ctx, q, core.WithCacheBypass())
	if err != nil {
		t.Fatal(err)
	}
	if !sameConnection(want, got) {
		t.Fatal("bypass answer differs from direct answer")
	}
	st := svc.Stats()
	if st.Entries != 0 || st.Hits != 0 || st.Misses != 0 || st.Bypasses != 1 {
		t.Fatalf("bypass touched the cache: %+v", st)
	}
	// Populate, then bypass again: still no hit recorded, same answer.
	svc.Connect(ctx, q)
	got, err = svc.Connect(ctx, q, core.WithCacheBypass())
	if err != nil || !sameConnection(want, got) {
		t.Fatalf("bypass after populate wrong: %v", err)
	}
	st = svc.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Bypasses != 2 {
		t.Fatalf("bypass accounting off: %+v", st)
	}
}

// TestServiceOptionAwareCacheKeys asserts that per-query options that
// change the answer get their own cache entries instead of colliding with
// the default answer.
func TestServiceOptionAwareCacheKeys(t *testing.T) {
	ctx := context.Background()
	b := gen.GridBipartite(3, 4) // no guarantee: method override matters
	svc := core.NewService(core.New(b))
	q := []int{0, 11}

	plain, err := svc.Connect(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Method != core.MethodExact {
		t.Fatalf("dispatch = %v, want exact", plain.Method)
	}
	forced, err := svc.Connect(ctx, q, core.WithMethod(core.MethodHeuristic))
	if err != nil {
		t.Fatal(err)
	}
	if forced.Method != core.MethodHeuristic {
		t.Fatalf("forced method not honored through the cache: %v", forced.Method)
	}
	st := svc.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("variant should occupy its own entry: %+v", st)
	}
	// Re-asking each variant hits its own entry.
	again, _ := svc.Connect(ctx, q)
	forcedAgain, _ := svc.Connect(ctx, q, core.WithMethod(core.MethodHeuristic))
	if again.Method != core.MethodExact || forcedAgain.Method != core.MethodHeuristic {
		t.Fatal("cache returned the wrong variant")
	}
	if st := svc.Stats(); st.Hits != 2 {
		t.Fatalf("variants should hit their own entries: %+v", st)
	}
}

func TestServiceConnectBatchOrderAndErrors(t *testing.T) {
	ctx := context.Background()
	// Disconnected scheme: two arcs in separate components.
	b := bipartite.New()
	a1, a2 := b.AddV1("a1"), b.AddV1("a2")
	r1, r2 := b.AddV2("r1"), b.AddV2("r2")
	b.AddEdge(a1, r1)
	b.AddEdge(a2, r2)
	svc := core.NewService(core.New(b), core.WithWorkers(3))

	queries := [][]int{
		{a1, r1},
		{a1, a2}, // spans components: error
		{a2, r2},
		{a1, r1}, // duplicate: cache hit
	}
	results := svc.ConnectBatch(ctx, queries)
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		if fmt.Sprint(r.Terminals) != fmt.Sprint(queries[i]) {
			t.Fatalf("result %d out of order", i)
		}
	}
	if results[1].Err == nil {
		t.Error("query across components should error")
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil {
			t.Errorf("query %d: %v", i, results[i].Err)
		}
	}
	if !results[0].Conn.Tree.Nodes.Equal(results[3].Conn.Tree.Nodes) {
		t.Error("duplicate queries disagree")
	}
	if st := svc.Stats(); st.Hits < 1 {
		t.Errorf("duplicate in batch should hit cache: %+v", st)
	}
	if res := svc.ConnectBatch(ctx, nil); len(res) != 0 {
		t.Errorf("empty batch should return no results")
	}
}

// TestServiceConcurrentHammer drives one Service from many goroutines with
// both repeated and distinct terminal sets, mixing cached and bypass
// lookups; under -race it asserts the frozen view + cache locking (incl.
// the eviction counter) are sound, and it checks every concurrent answer
// against the sequential one.
func TestServiceConcurrentHammer(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(73))
	b := bipartite.FromHypergraph(gen.GammaAcyclic(r, 30, 3, 3)).B
	conn := core.New(b)
	svc := core.NewService(conn, core.WithWorkers(8), core.WithCacheSize(16)) // small cache: eviction under load

	type query struct {
		terms []int
		conn  core.Connection
		err   error
	}
	var queries []query
	for k := 0; k < 24; k++ {
		terms := distinctTerms(r, b.N(), 3)
		c, err := conn.Connect(ctx, terms)
		queries = append(queries, query{terms: terms, conn: c, err: err})
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < 50; i++ {
				q := queries[rr.Intn(len(queries))]
				var opts []core.QueryOption
				if i%10 == 9 {
					opts = append(opts, core.WithCacheBypass())
				}
				got, err := svc.Connect(ctx, q.terms, opts...)
				if (err == nil) != (q.err == nil) {
					errs <- fmt.Errorf("error mismatch for %v: %v vs %v", q.terms, err, q.err)
					return
				}
				if err == nil && !sameConnection(got, q.conn) {
					errs <- fmt.Errorf("concurrent answer for %v differs", q.terms)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := svc.Stats()
	if st.Hits+st.Misses+st.Bypasses != goroutines*50 {
		t.Errorf("lookup accounting off: %+v", st)
	}
	if st.Entries > st.Capacity {
		t.Errorf("capacity exceeded under load: %+v", st)
	}
	sum := 0
	for _, n := range st.ShardEntries {
		sum += n
	}
	if sum != st.Entries || len(st.ShardEntries) != st.Shards {
		t.Errorf("per-shard occupancy inconsistent: %+v", st)
	}
}

// TestConnectorConcurrent hammers a bare Connector (no Service cache) from
// many goroutines — the frozen view itself must be safe without any
// synchronization.
func TestConnectorConcurrent(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(79))
	b := bipartite.FromHypergraph(gen.AlphaAcyclic(r, 25, 4, 3)).B
	conn := core.New(b)
	terms := [][]int{
		{0, b.N() - 1},
		{1, b.N() / 2},
		{0, 1, 2},
	}
	want := make([]core.Connection, len(terms))
	wantErr := make([]error, len(terms))
	for i, q := range terms {
		want[i], wantErr[i] = conn.Connect(ctx, q)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := (w + i) % len(terms)
				got, err := conn.Connect(ctx, terms[k])
				if (err == nil) != (wantErr[k] == nil) {
					errs <- fmt.Errorf("error mismatch on %v", terms[k])
					return
				}
				if err == nil && !sameConnection(got, want[k]) {
					errs <- fmt.Errorf("concurrent Connect differs on %v", terms[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServiceRejectsInvalidQueries asserts the boundary validation: v1 let
// an out-of-range id flow into the graph layer and panic; v2 rejects it —
// and every other malformed query — with a typed error before dispatch,
// and never caches the rejection.
func TestServiceRejectsInvalidQueries(t *testing.T) {
	ctx := context.Background()
	b := fixtures.Fig3b()
	svc := core.NewService(core.New(b), core.WithWorkers(2), core.WithCacheSize(8))

	for name, tc := range map[string]struct {
		terms []int
		want  error
	}{
		"out-of-range": {[]int{b.N() + 100}, core.ErrInvalidTerminal},
		"negative":     {[]int{-1}, core.ErrInvalidTerminal},
		"duplicate":    {[]int{0, 0}, core.ErrInvalidTerminal},
		"empty":        {nil, core.ErrEmptyQuery},
	} {
		if _, err := svc.Connect(ctx, tc.terms); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
	if st := svc.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("invalid queries must not touch the cache: %+v", st)
	}
	// Healthy queries still work.
	if _, err := svc.Connect(ctx, b.G().IDs("A", "C")); err != nil {
		t.Fatalf("service broken after rejections: %v", err)
	}
}
