package cache

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// MaxDefaultShards caps DefaultShards: beyond 64 ways the lock is no
// longer the bottleneck and the per-shard capacity floor starts inflating
// small caches.
const MaxDefaultShards = 64

// DefaultShards is the shard count used when the caller does not choose
// one: GOMAXPROCS rounded up to a power of two, capped at
// MaxDefaultShards. One shard per runnable goroutine is enough to make
// lock collisions rare without fragmenting the capacity of small caches.
func DefaultShards() int {
	n := ceilPow2(runtime.GOMAXPROCS(0))
	if n > MaxDefaultShards {
		n = MaxDefaultShards
	}
	return n
}

// ceilPow2 rounds n up to the nearest power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Cache is a sharded string-keyed map with cost-aware recency eviction.
// Each shard is a plain map under a sync.RWMutex: hits take the read
// lock, writes change the map in place under the write lock, and a
// per-shard min-heap on the recorded eviction score finds the victim in
// O(log n). Recency is tracked by sampled atomic stamps against a
// per-shard tick rather than a strict LRU list, and eviction weighs
// recency against the recorded cost of recomputing the entry. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Cache[V comparable] struct {
	mask     uint64
	perShard int
	// evictions counts entries dropped by capacity pressure across all
	// shards; atomic so Evictions never takes a shard lock.
	evictions atomic.Uint64
	shards    []shard[V]
}

// sampleEvery is the hit-path recency sampling period: every Nth hit on a
// shard advances the shard's tick. Hits inside one window share a stamp
// and tie-break on insertion order, which is as much ordering as eviction
// needs.
const sampleEvery = 16

// shard is one independently locked slice of the key space. idx and heap
// hold the same entries and are guarded by mu: lookups read idx under
// the read lock, and inserts, evictions, removals and cost fills change
// both under the write lock. Counters are atomics so the hit path can
// bump them under the read lock and the stats methods can read them
// with no lock at all; entries mirrors len(idx) for the same reason.
// The trailing pad keeps neighbouring shards' hot fields off one cache
// line.
type shard[V comparable] struct {
	mu   sync.RWMutex
	idx  map[string]*entry[V]
	heap []*entry[V] // min-heap on (score, seq); see evictLocked
	// tick is the shard's recency clock. Every insert advances it (so an
	// insert always outranks everything older), and the hit path advances
	// it once per sampleEvery hits — enough resolution for eviction
	// ordering without a read-modify-write per hit. It is per shard, not
	// cache-global: eviction only ever compares entries within one shard,
	// and a global clock would make every hit on every shard load (and
	// periodically write) one contended cache line.
	tick    atomic.Int64
	entries atomic.Int64
	// locks counts every acquisition of mu, read or write; tests
	// subtract LockAcquisitions snapshots around a workload to pin how
	// many locks each path takes. It is per shard because the read lock
	// already writes this shard's lines, and a cache-wide counter would
	// add one line every hit on every shard contends for.
	locks       atomic.Uint64
	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	warmFills   atomic.Uint64
	costAdded   atomic.Uint64
	costEvicted atomic.Uint64
	costRemoved atomic.Uint64
	costSaved   atomic.Uint64
	_           [64]byte
}

// entry is one resident key/value pair. key, val and seq are immutable
// after insert; score and pos belong to the heap and change only under
// the shard's write lock; stamp and cost are atomics because hits
// refresh recency (and read cost) under the read lock, concurrently with
// each other.
type entry[V comparable] struct {
	key   string
	val   V
	seq   int64 // insertion tick: eviction tie-break, oldest first
	score int64 // recorded eviction score, never above the live one
	pos   int   // index in the shard heap
	stamp atomic.Int64
	cost  atomic.Int64 // recompute cost in nanoseconds (0 = unrecorded)
}

// liveScore is the entry's current eviction score: its recency stamp
// plus the bonus its recorded cost earns. It only ever rises — stamps
// move up to the shard tick and a cost is recorded at most once — which
// is what lets the heap keep a stale, lower copy of it.
func (e *entry[V]) liveScore() int64 { return e.stamp.Load() + costBonus(e.cost.Load()) }

// New returns a Cache holding at least capacity entries split over the
// given number of shards. shards is rounded up to a power of two;
// non-positive selects DefaultShards. capacity is clamped to a minimum of
// one entry and divided across shards by ceiling division with a floor of
// one entry per shard (see the package comment for the rounding rule), so
// the effective Capacity may exceed the request but never falls below it.
func New[V comparable](capacity, shards int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	if shards <= 0 {
		shards = DefaultShards()
	}
	shards = ceilPow2(shards)
	perShard := (capacity + shards - 1) / shards
	c := &Cache[V]{
		mask:     uint64(shards - 1),
		perShard: perShard,
		shards:   make([]shard[V], shards),
	}
	for i := range c.shards {
		c.shards[i].idx = make(map[string]*entry[V])
	}
	return c
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// shardFor hashes key (FNV-1a, 64-bit) and masks it onto a shard.
func (c *Cache[V]) shardFor(key string) *shard[V] {
	return &c.shards[c.ShardIndex(key)]
}

// ShardIndex returns the index of the shard key hashes to, so callers
// (trace span annotations, shard-level diagnostics) can attribute a key
// to the same shard the cache itself uses. It never allocates.
func (c *Cache[V]) ShardIndex(key string) int {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return int(h & c.mask)
}

// lock and rlock acquire a shard's write or read lock through the
// instrumentation counter. Every path must come through them — the
// lock-count tests pin exactly one acquisition per warm hit and none
// per stats read, which is only meaningful if no call bypasses the
// counter.
func (s *shard[V]) lock() {
	s.locks.Add(1)
	s.mu.Lock()
}

func (s *shard[V]) rlock() {
	s.locks.Add(1)
	s.mu.RLock()
}

// noteHit records a successful lookup: bump the shard hit counter,
// advance the shard tick on the sampling period, and raise the entry's
// recency stamp to tick+1 — strictly above every already-resident
// entry's insert stamp in the current window. Caller holds either shard
// lock. The stamp only moves up (a compare-and-swap loses to a
// concurrent hit that stored a later tick), and is left alone when it is
// already current, so concurrent hits on one hot entry mostly leave its
// cache line in shared state instead of ping-ponging it.
func (s *shard[V]) noteHit(e *entry[V]) {
	if s.hits.Add(1)%sampleEvery == 0 {
		s.tick.Add(1)
	}
	t := s.tick.Load() + 1
	for cur := e.stamp.Load(); cur < t && !e.stamp.CompareAndSwap(cur, t); cur = e.stamp.Load() {
	}
	if cost := e.cost.Load(); cost > 0 {
		s.costSaved.Add(uint64(cost))
	}
}

// GetOrAdd returns the value cached under key with hit=true, refreshing
// its recency — or, when key is absent, inserts the value produced by
// newf and returns it with hit=false, evicting the shard's lowest-scored
// entry if the shard is at capacity. A hit takes only the shard's read
// lock. The lookup-or-insert is atomic with respect to the key's shard:
// of any number of concurrent callers with the same absent key, exactly
// one runs newf and the rest observe its value as a hit. newf runs with
// the shard's write lock held and must not call back into the Cache.
func (c *Cache[V]) GetOrAdd(key string, newf func() V) (v V, hit bool) {
	s := c.shardFor(key)
	s.rlock()
	if e, ok := s.idx[key]; ok {
		s.noteHit(e)
		s.mu.RUnlock()
		return e.val, true
	}
	s.mu.RUnlock()
	s.lock()
	defer s.mu.Unlock()
	// Re-check under the write lock: a concurrent writer may have
	// inserted key between the read-locked probe and here.
	if e, ok := s.idx[key]; ok {
		s.noteHit(e)
		return e.val, true
	}
	v = newf()
	s.misses.Add(1)
	c.insertLocked(s, key, v, 0)
	return v, false
}

// Get returns the value cached under key, if any, refreshing its recency
// like a GetOrAdd hit. It takes only the read lock. Absent keys are not
// counted as misses (only insert attempts are), so Get does not disturb
// the entries == misses + warmFills − evictions − removals
// reconciliation.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	s := c.shardFor(key)
	s.rlock()
	defer s.mu.RUnlock()
	if e, found := s.idx[key]; found {
		s.noteHit(e)
		return e.val, true
	}
	return v, false
}

// Add inserts key→val with a pre-recorded recompute cost iff key is
// absent, and reports whether it inserted. It is the warm-fill primitive
// behind snapshot warmup restore and epoch-swap carry-over: successful
// inserts count as warm fills, not misses, so cold-start accounting stays
// distinguishable from serving traffic.
func (c *Cache[V]) Add(key string, val V, costNanos int64) bool {
	s := c.shardFor(key)
	s.lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[key]; ok {
		return false
	}
	s.warmFills.Add(1)
	c.insertLocked(s, key, val, costNanos)
	return true
}

// SetCost records the recompute cost of key's entry, iff it is still
// mapped to v (the Remove identity rule) and no cost has been recorded
// yet. The Service calls it once per fill after the solve completes —
// the fill path inserts before computing, so the wall time is only known
// afterwards. Reports whether the cost was recorded. The entry's heap
// position is left as it is: its score only rose, and eviction re-keys
// it lazily.
func (c *Cache[V]) SetCost(key string, v V, costNanos int64) bool {
	if costNanos <= 0 {
		return false
	}
	s := c.shardFor(key)
	s.lock()
	defer s.mu.Unlock()
	e, ok := s.idx[key]
	if !ok || e.val != v || e.cost.Load() != 0 {
		return false
	}
	e.cost.Store(costNanos)
	s.costAdded.Add(uint64(costNanos))
	return true
}

// insertLocked adds key→val, first evicting the lowest-scored resident
// entry if the shard is at capacity — so the new entry, by construction
// the most recent, is never its own victim. Caller holds s.mu for
// writing. The insert advances the shard tick, so the new entry outranks
// every entry not hit in the current window.
func (c *Cache[V]) insertLocked(s *shard[V], key string, val V, costNanos int64) {
	if len(s.heap) >= c.perShard {
		c.evictLocked(s)
	}
	seq := s.tick.Add(1)
	e := &entry[V]{key: key, val: val, seq: seq, score: seq + costBonus(costNanos), pos: len(s.heap)}
	e.stamp.Store(seq)
	e.cost.Store(costNanos)
	if costNanos > 0 {
		s.costAdded.Add(uint64(costNanos))
	}
	s.idx[key] = e
	s.heap = append(s.heap, e)
	s.up(e.pos)
	s.entries.Store(int64(len(s.heap)))
}

// evictLocked drops the entry with the lowest live score, ties broken
// oldest insert first. The heap is ordered on each entry's recorded
// score, which is never above its live score (live scores only rise).
// So if the top's live score still equals its recorded one, no other
// entry can score lower and the top is exactly the victim a full scan
// would pick; otherwise the top is re-keyed to its live score, sifted
// down, and the next top is examined. Hits run under the read lock and
// cannot move a stamp while this holds the write lock, so every entry
// is re-keyed at most once per call, and each hit costs at most one
// O(log n) re-key later. Caller holds s.mu for writing.
func (c *Cache[V]) evictLocked(s *shard[V]) {
	for {
		e := s.heap[0]
		if live := e.liveScore(); live > e.score {
			e.score = live
			s.down(0)
			continue
		}
		s.removeLocked(e)
		s.evictions.Add(1)
		c.evictions.Add(1)
		if cost := e.cost.Load(); cost > 0 {
			s.costEvicted.Add(uint64(cost))
		}
		return
	}
}

// removeLocked unlinks e from the shard's map and heap. Caller holds s.mu
// for writing.
func (s *shard[V]) removeLocked(e *entry[V]) {
	delete(s.idx, e.key)
	i, last := e.pos, len(s.heap)-1
	if i != last {
		s.swap(i, last)
	}
	s.heap[last] = nil
	s.heap = s.heap[:last]
	if i != last && !s.down(i) {
		s.up(i)
	}
	s.entries.Store(int64(len(s.heap)))
}

// less orders the shard heap: lower recorded score first, then older
// insert.
func (s *shard[V]) less(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	return a.score < b.score || (a.score == b.score && a.seq < b.seq)
}

func (s *shard[V]) swap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}

// up sifts heap position i toward the root.
func (s *shard[V]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

// down sifts heap position i toward the leaves and reports whether it
// moved.
func (s *shard[V]) down(i int) bool {
	start, n := i, len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s.swap(i, m)
		i = m
	}
	return i > start
}

// costBonus converts a recompute cost into extra recency ticks: an entry
// worth costNanos of solver time scores as if it were hit 8·log₂(cost in
// ~0.5ms units) ticks more recently than its stamp says. Costs under
// ~0.5ms carry no bonus at all — at that scale recomputing is about as
// cheap as serving, so cheap entries (tree-scheme lookups, small
// heuristics) compete on pure recency and the policy degenerates to
// exact LRU (which the determinism tests rely on). Above the floor the
// bonus is logarithmic and bounded (≈8 ticks per cost doubling, well
// under 400 ticks for any real cost), so an expensive exact solve
// outlives cheap neighbours of equal recency but cannot pin its slot
// forever once it goes cold.
func costBonus(costNanos int64) int64 {
	if costNanos <= 0 {
		return 0
	}
	return int64(8 * bits.Len64(uint64(costNanos)>>19))
}

// Remove drops key iff it is still mapped to v and reports whether it
// did. The identity check makes removal safe against the ABA race where a
// capacity eviction plus re-insert replaced the caller's entry with a
// fresh one between its insert and its Remove: the fresh entry survives.
// Removals are deliberate (not capacity pressure) and are not counted by
// Evictions.
func (c *Cache[V]) Remove(key string, v V) bool {
	s := c.shardFor(key)
	s.lock()
	defer s.mu.Unlock()
	e, ok := s.idx[key]
	if !ok || e.val != v {
		return false
	}
	s.removeLocked(e)
	if cost := e.cost.Load(); cost > 0 {
		s.costRemoved.Add(uint64(cost))
	}
	return true
}

// Range calls f for every resident entry with its recorded cost, until f
// returns false. Each shard's entries are copied out under its read lock
// and f runs with no lock held, so f may call back into the Cache; the
// view is consistent per shard but not across shards under concurrent
// writes — the same contract as the stats methods. Range does not count
// hits or refresh recency; it exists for warmup serialization and
// diagnostics, not serving.
func (c *Cache[V]) Range(f func(key string, v V, costNanos int64) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		s.rlock()
		resident := slices.Clone(s.heap)
		s.mu.RUnlock()
		for _, e := range resident {
			if !f(e.key, e.val, e.cost.Load()) {
				return
			}
		}
	}
}

// Len returns the total number of resident entries, summed across the
// shards. Lock-free; the sum is not an atomic point-in-time snapshot
// under concurrent writes — fine for monitoring, which is its job.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		n += int(c.shards[i].entries.Load())
	}
	return n
}

// Occupancy returns the number of resident entries per shard, in shard
// order. Uniformly distributed keys should fill shards about evenly; a
// heavily skewed occupancy means the key space is not hashing well.
// Lock-free, like Len.
func (c *Cache[V]) Occupancy() []int {
	occ := make([]int, len(c.shards))
	for i := range c.shards {
		occ[i] = int(c.shards[i].entries.Load())
	}
	return occ
}

// ShardStat is one shard's counters and occupancy, as returned by
// ShardStats. Hits counts successful lookups (GetOrAdd hits
// and Gets) on keys hashing to the shard; Misses counts GetOrAdd
// inserts; WarmFills counts Add inserts; Evictions counts
// capacity-pressure drops (conditional Removes are not counted, matching
// Evictions()). The Cost fields carry the recompute-cost ledger in
// nanoseconds: CostAdded − CostEvicted − CostRemoved is the cost resident
// in the shard, and CostSaved accumulates the cost of every hit — solver
// time the cache turned into a map lookup.
type ShardStat struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	WarmFills   uint64
	Entries     int
	CostAdded   uint64
	CostEvicted uint64
	CostRemoved uint64
	CostSaved   uint64
}

// ShardStats returns per-shard counters and occupancy, in shard order —
// the observability view behind per-shard /metrics series. Hits sum to
// the hit total, misses to the miss total, evictions to Evictions().
// Lock-free: each shard's counters, entry count included, are atomics,
// so the slice is approximately consistent per shard but never blocks a
// writer.
func (c *Cache[V]) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		out[i] = ShardStat{
			Hits:        s.hits.Load(),
			Misses:      s.misses.Load(),
			Evictions:   s.evictions.Load(),
			WarmFills:   s.warmFills.Load(),
			Entries:     int(s.entries.Load()),
			CostAdded:   s.costAdded.Load(),
			CostEvicted: s.costEvicted.Load(),
			CostRemoved: s.costRemoved.Load(),
			CostSaved:   s.costSaved.Load(),
		}
	}
	return out
}

// CostStats is the cache-wide recompute-cost ledger, in nanoseconds of
// solver wall time: Added accumulates costs recorded at fill (SetCost
// and warm Adds), Evicted and Removed the cost of entries dropped by
// capacity pressure and conditional removal, and Saved the cost of every
// hit. Resident cost — solver time currently banked in the cache — is
// Added − Evicted − Removed, an identity the reconciliation tests
// assert.
type CostStats struct {
	Added   uint64
	Evicted uint64
	Removed uint64
	Saved   uint64
}

// Resident returns the cost currently banked in resident entries.
func (cs CostStats) Resident() uint64 { return cs.Added - cs.Evicted - cs.Removed }

// CostStats sums the per-shard cost ledgers. Lock-free, monitoring-grade
// consistency like ShardStats.
func (c *Cache[V]) CostStats() CostStats {
	var cs CostStats
	for i := range c.shards {
		s := &c.shards[i]
		cs.Added += s.costAdded.Load()
		cs.Evicted += s.costEvicted.Load()
		cs.Removed += s.costRemoved.Load()
		cs.Saved += s.costSaved.Load()
	}
	return cs
}

// WarmFills returns how many entries were installed by Add (warm fills)
// across all shards since construction.
func (c *Cache[V]) WarmFills() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].warmFills.Load()
	}
	return n
}

// Shards returns the shard count (always a power of two).
func (c *Cache[V]) Shards() int { return len(c.shards) }

// PerShard returns the per-shard entry capacity (always ≥ 1).
func (c *Cache[V]) PerShard() int { return c.perShard }

// Capacity returns the effective total capacity, Shards() × PerShard() —
// at least the capacity requested of New, rounded up to a multiple of the
// shard count.
func (c *Cache[V]) Capacity() int { return len(c.shards) * c.perShard }

// Evictions returns how many entries capacity pressure has dropped across
// all shards since construction. Conditional Removes are not counted.
func (c *Cache[V]) Evictions() uint64 { return c.evictions.Load() }

// LockAcquisitions returns how many shard-lock acquisitions, read or
// write, have been made since construction. A warm hit takes exactly one
// (the read lock), a GetOrAdd miss two (the read probe, then the write
// lock), and the stats methods none; the lock-count tests pin those
// figures.
func (c *Cache[V]) LockAcquisitions() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].locks.Load()
	}
	return n
}
