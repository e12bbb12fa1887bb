// Package cache implements the sharded, read-mostly map behind
// core.Service's answer cache.
//
// A Cache is a fixed set of shards selected by an FNV-1a hash of the
// key. Each shard is a plain map[string]*entry guarded by a
// sync.RWMutex, plus a min-heap over the same entries that orders them
// for eviction. A hit takes the shard's read lock once, looks the key
// up and raises the entry's recency stamp atomically, so hits on one
// shard run in parallel. Writers — misses, warm fills, cost fills,
// removals — take the write lock and change the map and the heap in
// place: a write costs O(log n) in the shard's size. Lookups of the
// *same* absent key meet on one write lock, which is what gives the
// Service its in-flight deduplication. LockAcquisitions counts every
// acquisition, read or write; the tests pin exactly one per warm hit
// and none for the stats methods, which read atomics only.
//
// # Why hits take a lock
//
// A lock-free hit needs an index readers can load without a lock, such
// as an immutable map republished through an atomic pointer. Every write
// must then copy the shard's map, which makes a miss O(n) — milliseconds
// on a 16k-entry shard, more than the solve whose answer it stores — and
// a warm restore quadratic. A read lock costs a hit one atomic add on
// the shard's own cache lines and lets writes work in place:
// BenchmarkCacheMissEvict keeps a miss plus eviction under a microsecond
// at every shard size, and the warm serving benchmarks did not move
// beyond noise.
//
// sync.Map is not used: its loads are lock-free, but the eviction heap
// would still need a lock every write takes, and its per-entry trie
// nodes cost more memory per resident answer than a plain map.
//
// # Recency and cost-aware eviction
//
// Strict LRU list maintenance would make every hit a write, so recency
// is sampled: each shard's tick advances on every insert and once per
// 16 hits, and a hit raises its entry's stamp to tick+1 — above every
// entry inserted in the current window. (The tick is per shard, not
// cache-global: eviction only compares entries within one shard, and a
// global clock would be a cache line contended by every hit on every
// shard.) Eviction (on an insert into a full shard) drops the entry
// minimizing
//
//	stamp + 8·log₂(recompute cost in ~0.5ms units)
//
// with ties broken oldest-insert-first. The cost term is the point: the
// Service records each entry's solver wall time at fill, so at equal
// recency a multi-millisecond ExactFrozen answer outlives a microsecond
// tree-scheme lookup by ~8 ticks per cost doubling — enough to prefer
// re-deriving cheap answers, bounded so a cold expensive entry cannot
// pin its slot forever. Costs under the ~0.5ms floor carry no bonus:
// among cheap entries (every answer on a small scheme) the policy is
// pure recency, reproducing classic LRU order exactly with one shard
// (pinned by test), because every insert opens a new tick window and
// hits stamp strictly above it.
//
// The heap finds the victim without a scan. It is ordered on each
// entry's recorded score, taken at insert; live scores only rise
// (stamps move up, a cost is recorded once), so a recorded score is
// never above the live one. Hits leave the heap alone. Eviction looks
// at the top entry: if its live score has risen past the recorded one,
// the top is re-keyed and sifted down and the next top examined;
// otherwise no entry can score lower, and the top is the victim — the
// same one a full scan picks (TestEvictionMatchesReferenceScan replays a
// tape against that scan). Every hit costs at most one O(log n) re-key
// later.
//
// The cost ledger is exposed per shard (ShardStat) and cache-wide
// (CostStats): Added − Evicted − Removed equals the cost resident in the
// cache, and Saved accumulates the recompute cost of every hit — the
// solver time the cache has turned into map lookups. Warm fills (Add,
// used by snapshot warmup restore and Registry epoch-swap carry-over)
// count separately from misses, so
//
//	entries == misses + warmFills − evictions − removals
//
// stays an exact identity, asserted by the reconciliation tests.
//
// # Capacity rounding
//
// The requested capacity is divided across shards with ceiling division
// and a floor of one entry per shard: New(capacity, shards) gives every
// shard max(1, ⌈capacity/shards⌉) entries. The effective total — reported
// by Capacity() — is therefore rounded *up* to a multiple of the shard
// count, never down: a cache asked for 10 entries over 8 shards holds up
// to 16, and a cache asked for 1 entry over 64 shards holds up to 64.
// A shard is never silently given zero capacity, which would turn every
// lookup that lands on it into a miss-insert-evict cycle that can never
// hit.
//
// Eviction is per shard, not global: capacity pressure on one shard
// evicts that shard's lowest-scored entry even if a colder entry lives
// elsewhere. For the uniformly-hashed keys the Service feeds it
// (canonical terminal-set fingerprints) the difference from a global
// policy is noise; the win is that no lookup ever touches another
// shard's lock.
package cache
