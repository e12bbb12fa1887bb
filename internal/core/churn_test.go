package core_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/intset"
)

// churnCapacity is the answer-cache size of the churn tests: a full
// cache of cheap exact answers, as a never-repeating query stream keeps
// it.
const churnCapacity = 4096

// churnQueries returns n distinct 2–4-terminal queries over the ids
// [0, nodes), in a seeded order.
func churnQueries(n, nodes int, seed int64) [][]int {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([][]int, 0, n)
	for len(out) < n {
		q := r.Perm(nodes)[:2+r.Intn(3)]
		key := intset.FromSlice(q).Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, q)
	}
	return out
}

// TestWarmRestoreOverfillsCache restores a warmup section holding a
// quarter more answers than the receiving cache fits: every entry is
// accepted (counted as a warm fill), the overflow is evicted on the way
// in, every shard ends full, and the residency algebra still closes.
func TestWarmRestoreOverfillsCache(t *testing.T) {
	ctx := context.Background()
	const warm = churnCapacity + churnCapacity/4
	b := gen.GridBipartite(8, 8)
	src := core.Open(b, core.WithCacheSize(2*warm))
	for _, q := range churnQueries(warm, b.N(), 1) {
		if _, err := src.Connect(ctx, q); err != nil {
			t.Fatalf("connect %v: %v", q, err)
		}
	}
	entries := src.WarmupEntries()
	if len(entries) != warm {
		t.Fatalf("source cache serialized %d warm entries, want %d", len(entries), warm)
	}

	// Four shards of 1024: each receives ~1280 entries, far enough above
	// its capacity that hashing skew cannot leave one short.
	svc := core.Open(b, core.WithCacheSize(churnCapacity), core.WithCacheShards(4))
	if got := svc.RestoreWarmup(entries); got != warm {
		t.Fatalf("RestoreWarmup installed %d entries, want all %d", got, warm)
	}
	st := svc.Stats()
	if st.Entries != st.Capacity || st.Capacity != churnCapacity {
		t.Fatalf("after restore: %d entries in capacity %d, want a full %d-entry cache", st.Entries, st.Capacity, churnCapacity)
	}
	if st.WarmFills != warm || st.Evictions != warm-churnCapacity {
		t.Fatalf("after restore: %d warm fills and %d evictions, want %d and %d", st.WarmFills, st.Evictions, warm, warm-churnCapacity)
	}
	assertStatsReconcile(t, st, 0)
}

// TestResidentAnswerMemoryBudget pins what a resident answer costs: a
// Service on the 8×8 grid, churned past its capacity by 2–4-terminal
// misses (cheap exact solves), holds at most residentBudget bytes of
// live heap per resident entry after GC — the cache's own entry, map
// slot and heap slot, plus the answer, its key and its query.
func TestResidentAnswerMemoryBudget(t *testing.T) {
	const residentBudget = 650
	ctx := context.Background()
	b := gen.GridBipartite(8, 8)
	queries := churnQueries(2*churnCapacity, b.N(), 2)
	conn := core.New(b)

	// The baseline is taken before the Service exists, so whatever its
	// cache allocates up front counts against the budget too.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	svc := core.NewService(conn, core.WithCacheSize(churnCapacity))
	for _, q := range queries {
		if _, err := svc.Connect(ctx, q); err != nil {
			t.Fatalf("connect %v: %v", q, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	st := svc.Stats()
	if st.Entries != st.Capacity || st.Hits != 0 {
		t.Fatalf("churn left %d entries in capacity %d with %d hits, want a full cache and no hits", st.Entries, st.Capacity, st.Hits)
	}
	perEntry := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(st.Entries)
	t.Logf("%d resident entries hold %d B of live heap each", st.Entries, perEntry)
	if perEntry > residentBudget {
		t.Fatalf("resident answers hold %d B each, budget %d B", perEntry, residentBudget)
	}
	runtime.KeepAlive(queries)
	runtime.KeepAlive(svc)
}
