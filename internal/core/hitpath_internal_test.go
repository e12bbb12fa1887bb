package core

import (
	"context"
	"testing"
)

// TestServiceHitPathLockCount pins the lock cost of a warm hit at the
// Service level: once an answer is settled in the cache, serving it
// again acquires exactly one shard lock (the read lock), and reading
// stats alongside acquires none. The cache counts every lock
// acquisition, read or write.
func TestServiceHitPathLockCount(t *testing.T) {
	ctx := context.Background()
	svc := NewService(New(tinyScheme()))
	queries := [][]int{{0, 1}, {0, 2}, {1, 2}}
	for _, q := range queries {
		if _, err := svc.Connect(ctx, q); err != nil {
			t.Fatalf("warm-up connect %v: %v", q, err)
		}
	}

	const replays = 200
	before := svc.cache.LockAcquisitions()
	for i := 0; i < replays; i++ {
		q := queries[i%len(queries)]
		if _, err := svc.Connect(ctx, q); err != nil {
			t.Fatalf("hit connect %v: %v", q, err)
		}
	}
	if got := svc.cache.LockAcquisitions() - before; got != replays {
		t.Fatalf("%d warm hits acquired %d shard locks, want exactly one each", replays, got)
	}

	before = svc.cache.LockAcquisitions()
	_ = svc.Stats()
	_ = svc.ShardStats()
	if got := svc.cache.LockAcquisitions() - before; got != 0 {
		t.Fatalf("stats reads acquired %d shard locks, want 0", got)
	}
	if st := svc.Stats(); st.Hits != replays || st.Misses != uint64(len(queries)) {
		t.Fatalf("replay accounting: %+v, want %d hits over %d misses", st, replays, len(queries))
	}
}
