package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/intset"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/steiner"
	"repro/internal/trace"
)

// Service serves minimal-connection queries over one compiled scheme to
// concurrent callers. It adds two things to a Connector:
//
//   - a sharded LRU answer cache (internal/cache) keyed on the canonical
//     terminal set (intset.Key) plus the per-query options that change the
//     answer: the scheme is frozen at construction, so an answer never goes
//     stale and repeated or overlapping workloads — the paper's interactive
//     disambiguation loop re-asks mostly-identical queries — become cache
//     hits instead of Steiner reruns. Each shard has its own lock, so a
//     warm high-QPS path does not serialize every hit on one mutex; with
//     WithCacheShards(1) the cache is exactly the classic single-lock LRU;
//   - ConnectBatch, which fans a batch out over a bounded worker pool.
//
// Identical queries arriving concurrently are deduplicated in flight: one
// goroutine computes, the rest wait on the same cache entry (or return
// early when their own context expires first). Cancellation errors are
// never cached — an entry whose computation died of its context's deadline
// is evicted so the next caller retries with its own budget. All methods
// are safe for concurrent use.
type Service struct {
	c       *Connector
	workers int

	// cache maps option-fingerprinted canonical terminal sets to
	// *cacheEntry values. Shard selection hashes the whole key, so
	// concurrent lookups of distinct queries take distinct locks while
	// concurrent lookups of the same query still meet on one shard — which
	// is what makes the in-flight dedup below work.
	cache *cache.Cache[*cacheEntry]

	// Counters are atomics, not lock-guarded fields: Stats() is a
	// monitoring endpoint (/v1/stats) polled while queries are in flight,
	// so reads must neither tear nor contend with the cache locks, and the
	// bypass path can count itself without taking any lock at all.
	// Evictions live on the cache itself, aggregated the same way.
	hits     atomic.Uint64
	misses   atomic.Uint64
	bypasses atomic.Uint64
	// removals counts entries deliberately evicted because their outcome
	// must not be cached — cancellation results and panicked computations.
	// It closes the residency algebra (see CacheStats) on those paths:
	// every miss inserts one entry, and every entry leaves either by
	// capacity eviction or by a removal.
	removals atomic.Uint64

	// Planner observability: the size of every non-singleton batch group
	// and the wall time of every lazy Shared build. Owned here (one pair
	// per scheme) and bridged onto /metrics per scheme via
	// Registry.HistogramFunc — see PlannerStats.
	plannerGroupSize *metrics.Histogram
	sharedBuildDur   *metrics.Histogram
}

// cacheEntry is one cached (or in-flight) answer. done points at a
// channel that is closed once conn and err are populated; waiters block
// on it outside the shard lock. The key lives in the cache's own entry;
// this side carries the payload plus the query that produced it (terms,
// fp) so warmup serialization and epoch-swap carry-over can revalidate
// an entry without parsing keys.
type cacheEntry struct {
	done  atomic.Pointer[chan struct{}]
	conn  Connection
	err   error
	terms intset.Set
	fp    string
}

// settledDone is the pre-closed channel shared by every settled entry.
// Entries installed already settled (warmup restore, epoch-swap carry)
// start on it, and a filled entry swaps its own channel for it once
// closed, so a resident answer holds no channel of its own. A waiter
// sees a closed channel whichever pointer it loads.
var settledDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// newPendingEntry returns an in-flight entry with its own open channel.
func newPendingEntry(terms intset.Set, fp string) *cacheEntry {
	ent := &cacheEntry{terms: terms, fp: fp}
	ch := make(chan struct{})
	ent.done.Store(&ch)
	return ent
}

// wait returns the channel that is closed once the entry is settled.
func (e *cacheEntry) wait() <-chan struct{} { return *e.done.Load() }

// settle wakes the entry's waiters — conn and err must already be
// populated — and drops its own channel for the shared closed one.
func (e *cacheEntry) settle() {
	close(*e.done.Load())
	e.done.Store(&settledDone)
}

// settled reports whether conn and err are final.
func (e *cacheEntry) settled() bool {
	select {
	case <-e.wait():
		return true
	default:
		return false
	}
}

// DefaultCacheSize is the answer-cache capacity used when NewService is
// not given a positive WithCacheSize. The capacity is split across the
// cache shards by ceiling division with a floor of one entry per shard
// (see internal/cache), so the effective capacity is never silently below
// the request.
const DefaultCacheSize = 1024

// NewService wraps a Connector for concurrent serving. Recognized options:
// WithWorkers bounds the ConnectBatch pool (default GOMAXPROCS),
// WithCacheSize bounds the answer cache (default DefaultCacheSize),
// WithCacheShards sets the cache's lock-shard count (default GOMAXPROCS
// rounded up to a power of two, at most 64).
func NewService(c *Connector, opts ...Option) *Service {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.cacheSize <= 0 {
		cfg.cacheSize = DefaultCacheSize
	}
	return &Service{
		c:       c,
		workers: cfg.workers,
		cache:   cache.New[*cacheEntry](cfg.cacheSize, cfg.cacheShards),
		// Group sizes are small integers: powers of two up to 256 resolve
		// "pairs" from "whole-batch coalescence". Build durations use the
		// standard latency layout.
		plannerGroupSize: metrics.NewHistogram(metrics.ExponentialBounds(2, 2, 8)),
		sharedBuildDur:   metrics.NewHistogram(metrics.DefLatencyBounds()),
	}
}

// PlannerStats returns the batch-planner histograms: the distribution of
// non-singleton group sizes (in queries) and of lazy Shared-build wall
// times (in seconds). Both are live instruments — /metrics renders them
// at scrape time.
func (s *Service) PlannerStats() (groupSize, sharedBuild *metrics.Histogram) {
	return s.plannerGroupSize, s.sharedBuildDur
}

// Connector returns the wrapped Connector.
func (s *Service) Connector() *Connector { return s.c }

// SaveSnapshot serializes the service's compiled epoch (frozen CSR view +
// classification) to w — see Connector.WriteSnapshot. The answer cache is
// deliberately not persisted: it is a property of this process's traffic,
// not of the epoch.
func (s *Service) SaveSnapshot(w io.Writer) error { return s.c.WriteSnapshot(w) }

// Connect answers one minimal-connection query through the cache. The
// cache key combines the canonical terminal set with the answer-changing
// query options, so a WithMethod or WithInterpretations variant never
// collides with the default answer. WithCacheBypass skips the cache in
// both directions.
func (s *Service) Connect(ctx context.Context, terminals []int, opts ...QueryOption) (Connection, error) {
	return s.connectWith(ctx, terminals, newQueryConfig(opts), nil)
}

// connectWith is Connect after option folding, with an optional provider of
// batch-planner shared work. The provider is consulted only when a query
// actually computes (cache miss or bypass), so a warm batch never builds
// its Shared at all.
func (s *Service) connectWith(ctx context.Context, terminals []int, q queryConfig, shared func() *steiner.Shared) (Connection, error) {
	tr := trace.FromContext(ctx)
	compute := func(ctx context.Context) (Connection, error) {
		// The planner's lazy Shared build traces itself (planner.go), so
		// the solve span covers exactly the dispatch + solver run.
		var sh *steiner.Shared
		if shared != nil {
			sh = shared()
		}
		sp := tr.StartSpan("solve")
		conn, err := s.c.connectShared(ctx, terminals, q, sh)
		if err == nil {
			sp.Annotate("method", conn.Method.String())
		}
		sp.End()
		return conn, err
	}
	// Validate before touching the cache: invalid queries are cheap to
	// reject and must not occupy cache capacity.
	if err := s.c.Validate(terminals); err != nil {
		return Connection{}, err
	}
	if err := ctx.Err(); err != nil {
		return Connection{}, err
	}
	if q.bypassCache {
		s.bypasses.Add(1)
		return compute(ctx)
	}
	fp := q.fingerprint()
	terms := intset.FromSlice(terminals)
	key := fp + "#" + terms.Key()
	// The cache span covers lookup and in-flight waiting, never the
	// compute itself (that is the solve span), so a trace's phases tile
	// the request without double counting. A retry after observing a
	// cancellation outcome stays inside the same span.
	csp := tr.StartSpan("cache")
	if tr != nil {
		csp.AnnotateInt("shard", int64(s.cache.ShardIndex(key)))
	}
	for {
		ent, hit := s.cache.GetOrAdd(key, func() *cacheEntry { return newPendingEntry(terms, fp) })
		if hit {
			s.hits.Add(1)
			outcome := "hit"
			if tr != nil && !ent.settled() {
				// Distinguish a settled hit from in-flight dedup without
				// perturbing the traceless hot path: one extra
				// non-blocking poll of done, only when tracing.
				outcome = "inflight"
			}
			select {
			case <-ent.wait():
			case <-ctx.Done():
				// The computing goroutine keeps going on its own context;
				// this caller just stops waiting for it.
				csp.Annotate("outcome", outcome)
				csp.End()
				return Connection{}, ctx.Err()
			}
			if isCtxErr(ent.err) && ctx.Err() == nil {
				// The computation died of the *computing* caller's
				// cancellation, not ours; it evicted the entry before
				// closing done, so retry with this caller's own budget.
				continue
			}
			csp.Annotate("outcome", outcome)
			csp.End()
			return ent.conn, ent.err
		}
		s.misses.Add(1)
		csp.Annotate("outcome", "miss")
		csp.End()

		// Compute outside the shard lock; the Connector is
		// concurrency-safe. Errors are cached too: for a frozen scheme
		// they are as deterministic as answers (e.g. disconnected
		// terminals stay disconnected) — except cancellation, which is a
		// property of this call's context, not of the query, and is
		// uncached below.
		completed := false
		defer func() {
			if completed {
				return
			}
			// Connect panicked. Evict the half-built entry so the key is
			// not poisoned and fail any waiters instead of leaving them
			// blocked on done forever; the panic itself keeps propagating
			// to this caller.
			ent.err = fmt.Errorf("core: Connect panicked for cache key %q", key)
			if s.cache.Remove(key, ent) {
				s.removals.Add(1)
			}
			ent.settle()
		}()
		start := time.Now()
		ent.conn, ent.err = compute(ctx)
		completed = true
		if isCtxErr(ent.err) {
			// Evict before closing done: waiters observing a cancellation
			// outcome must find the key absent when they retry. Remove is
			// conditional on entry identity, so a concurrent capacity
			// eviction plus re-insert is never clobbered.
			if s.cache.Remove(key, ent) {
				s.removals.Add(1)
			}
		} else if ent.err == nil {
			// Record what this answer cost to compute — eviction uses it to
			// prefer dropping cheap-to-recompute entries, and a persisted
			// warmup carries it forward. Identity-conditional like Remove,
			// so a concurrent eviction + re-insert never inherits our cost.
			s.cache.SetCost(key, ent, time.Since(start).Nanoseconds())
		}
		ent.settle()
		return ent.conn, ent.err
	}
}

// isCtxErr reports whether err is a cancellation outcome.
func isCtxErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// BatchResult is one answer of ConnectBatch, at the index of its query.
type BatchResult struct {
	Terminals []int
	Conn      Connection
	Err       error
}

// ConnectBatch answers all queries concurrently on at most workers
// goroutines and returns the results in query order; opts apply to every
// query of the batch. Duplicate terminal sets inside one batch are
// computed once via the cache. Queries that share terminals are grouped by
// the batch planner (planner.go) so the group's component masks and
// distance rows are flooded once and read by every member — the answers
// are bit-for-bit those of independent Connect calls. Once ctx is done the
// remaining queries fail fast with its error.
func (s *Service) ConnectBatch(ctx context.Context, queries [][]int, opts ...QueryOption) []BatchResult {
	out := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	q := newQueryConfig(opts)
	plan := planBatch(s.c, queries, q)
	if plan != nil {
		seen := make(map[*batchGroup]bool)
		for _, g := range plan.groups {
			if g != nil && !seen[g] {
				seen[g] = true
				s.plannerGroupSize.Observe(float64(g.queries))
			}
		}
	}
	workers := s.workers
	if workers > len(queries) {
		workers = len(queries)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				var shared func() *steiner.Shared
				if g := plan.group(i); g != nil {
					shared = func() *steiner.Shared { return g.shared(ctx, s) }
				}
				conn, err := s.connectWith(ctx, queries[i], q, shared)
				out[i] = BatchResult{Terminals: queries[i], Conn: conn, Err: err}
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// CacheStats is a point-in-time snapshot of the answer cache. The
// counters satisfy an exact reconciliation algebra (asserted by the test
// harness and exported on /metrics): every cache-path request counts as
// exactly one of Hits/Misses/Bypasses; every miss and every warm fill
// inserts one entry; and every entry leaves by capacity eviction
// (Evictions) or deliberate removal (Removals) — so
// Entries == Misses + WarmFills − Evictions − Removals. The cost ledger
// satisfies its own identity:
// CostResidentNanos == CostAddedNanos − CostEvictedNanos − CostRemovedNanos.
type CacheStats struct {
	Hits      uint64 // lookups that found an entry (including in-flight)
	Misses    uint64 // lookups that started a computation
	Evictions uint64 // entries dropped by capacity pressure, all shards
	Bypasses  uint64 // queries answered around the cache (WithCacheBypass)
	// Removals counts entries deliberately evicted because their outcome
	// must not be cached: computations that ended in a cancellation error
	// (the next caller retries with its own budget) or in a panic (the
	// key must not stay poisoned).
	Removals uint64
	// WarmFills counts entries installed without a miss: restored from a
	// snapshot's warmup section at boot, or carried over from the previous
	// epoch on a Registry swap.
	WarmFills uint64
	Entries   int // entries currently resident (including in-flight)
	Shards    int // lock shards (WithCacheShards; always a power of two)
	Capacity  int // effective capacity: per-shard capacity × Shards
	// ShardEntries is the per-shard resident-entry count, in shard order
	// (sums to Entries). Uniform traffic should fill shards about evenly;
	// persistent skew means the key space is hashing badly.
	ShardEntries []int
	// The cost ledger, in nanoseconds of solver wall time: Added is
	// recorded at fill, Evicted/Removed leave with their entries, Resident
	// is what the cache currently holds, and Saved accumulates the
	// recorded cost of every hit — solver time turned into map lookups.
	CostAddedNanos    uint64
	CostEvictedNanos  uint64
	CostRemovedNanos  uint64
	CostResidentNanos uint64
	CostSavedNanos    uint64
}

// ShardStats returns the answer cache's per-shard hit/miss/eviction
// counters and occupancy, in shard order — the source for the per-shard
// /metrics series. Shard hits sum to Stats().Hits and shard misses to
// Stats().Misses: Service counts a hit exactly when the key's shard does
// (including an in-flight-dedup retry, which runs one more lookup at both
// levels). Bypasses never touch the cache, so they have no shard.
func (s *Service) ShardStats() []cache.ShardStat { return s.cache.ShardStats() }

// Stats returns current cache counters. A hit counts any lookup that found
// an entry, including one still in flight. Counters and occupancy are
// read atomically, so a monitoring poll never takes a lock at all —
// scrapes cannot perturb the serving path.
func (s *Service) Stats() CacheStats {
	occ := s.cache.Occupancy()
	entries := 0
	for _, n := range occ {
		entries += n
	}
	costs := s.cache.CostStats()
	return CacheStats{
		Hits:              s.hits.Load(),
		Misses:            s.misses.Load(),
		Evictions:         s.cache.Evictions(),
		Bypasses:          s.bypasses.Load(),
		Removals:          s.removals.Load(),
		WarmFills:         s.cache.WarmFills(),
		Entries:           entries,
		Shards:            s.cache.Shards(),
		Capacity:          s.cache.Capacity(),
		ShardEntries:      occ,
		CostAddedNanos:    costs.Added,
		CostEvictedNanos:  costs.Evicted,
		CostRemovedNanos:  costs.Removed,
		CostResidentNanos: costs.Resident(),
		CostSavedNanos:    costs.Saved,
	}
}

// warmKey rebuilds the cache key for a warm install — the same
// composition connectWith uses, so a restored entry is hit by exactly
// the query that produced it.
func warmKey(fp string, terms intset.Set) string { return fp + "#" + terms.Key() }

// warmAdd installs an already-settled answer, if its key is absent.
func (s *Service) warmAdd(fp string, terms intset.Set, conn Connection, costNanos int64) bool {
	ent := &cacheEntry{conn: conn, terms: terms, fp: fp}
	ent.done.Store(&settledDone)
	return s.cache.Add(warmKey(fp, terms), ent, costNanos)
}

// RestoreWarmup installs persisted answer-cache entries (a snapshot's
// warmup section, already fingerprint-validated by snapshot.Decode) and
// returns how many it accepted. Every entry is revalidated against this
// service's own configuration — terminals through Connector.Validate,
// the tree through steiner.Tree.Validate — so an entry the current
// options would reject (say, WithV1TerminalsOnly) is skipped, never
// installed. Installed entries are answered bit-for-bit as the original
// solve and count as WarmFills, not Misses.
func (s *Service) RestoreWarmup(entries []snapshot.WarmEntry) int {
	installed := 0
	for _, we := range entries {
		terms := make([]int, len(we.Terminals))
		for i, t := range we.Terminals {
			terms[i] = int(t)
		}
		if s.c.Validate(terms) != nil {
			continue
		}
		nodes := make(intset.Set, len(we.Nodes))
		for i, v := range we.Nodes {
			nodes[i] = int(v)
		}
		var edges []graph.Edge
		if len(we.Edges) > 0 {
			edges = make([]graph.Edge, len(we.Edges))
			for i, e := range we.Edges {
				edges[i] = graph.Edge{U: int(e[0]), V: int(e[1])}
			}
		}
		tree := steiner.Tree{Nodes: nodes, Edges: edges}
		if tree.ValidateFrozen(s.c.fb.G(), terms) != nil {
			continue
		}
		conn := Connection{
			Tree:      tree,
			Method:    Method(we.Method),
			Optimal:   we.Optimal,
			V2Optimal: we.V2Optimal,
			Rationale: we.Rationale,
		}
		if s.warmAdd(we.Fingerprint, intset.Set(terms), conn, we.CostNanos) {
			installed++
		}
	}
	return installed
}

// WarmFrom carries settled answers over from prev's cache — the Registry
// calls it on an epoch swap so a recompile of the same scheme does not
// restart cold. It is a no-op unless both services serve the identical
// compiled epoch (scheme fingerprints equal): on a real scheme change
// every old answer is potentially stale and none may carry. Entries
// still in flight, error outcomes, and queries the new configuration
// rejects are skipped. Returns the number of entries installed.
func (s *Service) WarmFrom(prev *Service) int {
	if prev == nil || prev == s || !bytes.Equal(s.c.SchemeFingerprint(), prev.c.SchemeFingerprint()) {
		return 0
	}
	installed := 0
	prev.cache.Range(func(key string, ent *cacheEntry, costNanos int64) bool {
		if !ent.settled() {
			return true // in flight: its outcome belongs to the old epoch
		}
		if ent.err != nil || s.c.Validate(ent.terms) != nil {
			return true
		}
		// The settled entry is immutable, so the new cache can share it.
		if s.cache.Add(key, ent, costNanos) {
			installed++
		}
		return true
	})
	return installed
}

// WarmupEntries serializes the cache's settled, persistable answers into
// snapshot warmup entries: in-flight entries, error outcomes and answers
// carrying interpretation lists (whose enumeration is not part of the
// warmup format) are skipped. The result feeds snapshot.EncodeWarm.
func (s *Service) WarmupEntries() []snapshot.WarmEntry {
	var out []snapshot.WarmEntry
	s.cache.Range(func(key string, ent *cacheEntry, costNanos int64) bool {
		if !ent.settled() || ent.err != nil || ent.conn.Interps != nil {
			return true
		}
		we := snapshot.WarmEntry{
			Fingerprint: ent.fp,
			Terminals:   int32sOf(ent.terms),
			Method:      uint8(ent.conn.Method),
			Optimal:     ent.conn.Optimal,
			V2Optimal:   ent.conn.V2Optimal,
			CostNanos:   costNanos,
			Rationale:   ent.conn.Rationale,
			Nodes:       int32sOf(ent.conn.Tree.Nodes),
		}
		if n := len(ent.conn.Tree.Edges); n > 0 {
			we.Edges = make([][2]int32, n)
			for i, e := range ent.conn.Tree.Edges {
				we.Edges[i] = [2]int32{int32(e.U), int32(e.V)}
			}
		}
		out = append(out, we)
		return true
	})
	return out
}

// int32sOf narrows a sorted id set for serialization.
func int32sOf(s intset.Set) []int32 {
	out := make([]int32, len(s))
	for i, v := range s {
		out[i] = int32(v)
	}
	return out
}

// SaveWarmSnapshot serializes the compiled epoch plus the current
// settled answer cache as a warm snapshot: a process booting from it
// (OpenSnapshot, Registry.LoadSnapshot) starts with those answers
// resident. The warmup section is fingerprint-bound to this exact epoch,
// so it can never warm a different scheme.
func (s *Service) SaveWarmSnapshot(w io.Writer) error {
	return snapshot.WriteWarm(w, s.c.fb, s.c.class, s.WarmupEntries())
}
