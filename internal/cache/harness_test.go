package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// box is the harness value type: every insert allocates a fresh pointer,
// so identity distinguishes generations of the same key — once a
// particular box is removed, no later lookup may ever return it again.
type box struct {
	key string
	gen int
}

// refCache is the mutex-guarded reference implementation: one global
// lock, one plain map, the same conditional-op semantics as Cache but
// no shards, heap or eviction. The sequential equivalence test
// replays an op tape against both and reconciles every outcome.
type refCache struct {
	mu    sync.Mutex
	table map[string]*box
}

func newRef() *refCache { return &refCache{table: make(map[string]*box)} }

func (r *refCache) getOrAdd(key string, newf func() *box) (*box, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.table[key]; ok {
		return v, true
	}
	v := newf()
	r.table[key] = v
	return v, false
}

func (r *refCache) get(key string) (*box, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.table[key]
	return v, ok
}

func (r *refCache) add(key string, v *box) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.table[key]; ok {
		return false
	}
	r.table[key] = v
	return true
}

func (r *refCache) remove(key string, v *box) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.table[key]; ok && cur == v {
		delete(r.table, key)
		return true
	}
	return false
}

func (r *refCache) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.table)
}

// harnessShardCounts are the configurations every harness test sweeps:
// the degenerate single shard, the smallest real split, the default, and
// the 64-way config CI pins for the cache-stress job.
var harnessShardCounts = []int{1, 2, 0, 64}

// TestSequentialEquivalenceVsReference replays one randomized op tape
// (GetOrAdd / Get / Add / Remove / SetCost) against the sharded cache
// and the single-mutex reference, reconciling every outcome per key:
// same hit/insert decision, same value identity, same conditional-remove
// verdict, same final occupancy. Capacity exceeds the key space so no
// eviction fires — eviction *policy* is pinned separately by
// TestSingleShardIsExactLRU, TestCostAwareEviction and
// TestEvictionMatchesReferenceScan; this test pins the sharded map's
// semantics against the one-lock model.
func TestSequentialEquivalenceVsReference(t *testing.T) {
	const keys = 64
	for _, shards := range harnessShardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(1000 + shards)))
			c := New[*box](4*keys*MaxDefaultShards, shards) // per-shard floor can multiply capacity; stay above it
			ref := newRef()
			gen := 0
			for op := 0; op < 5000; op++ {
				key := fmt.Sprintf("k%02d", r.Intn(keys))
				switch r.Intn(5) {
				case 0, 1: // GetOrAdd
					gen++
					fresh := &box{key: key, gen: gen}
					got, hit := c.GetOrAdd(key, func() *box { return fresh })
					want, refHit := ref.getOrAdd(key, func() *box { return fresh })
					if hit != refHit || got != want {
						t.Fatalf("op %d GetOrAdd(%q): cache (%p,%v) vs ref (%p,%v)", op, key, got, hit, want, refHit)
					}
				case 2: // Get
					got, ok := c.Get(key)
					want, refOK := ref.get(key)
					if ok != refOK || got != want {
						t.Fatalf("op %d Get(%q): cache (%p,%v) vs ref (%p,%v)", op, key, got, ok, want, refOK)
					}
				case 3: // Add (warm fill)
					gen++
					fresh := &box{key: key, gen: gen}
					if ins, refIns := c.Add(key, fresh, 1000), ref.add(key, fresh); ins != refIns {
						t.Fatalf("op %d Add(%q): cache %v vs ref %v", op, key, ins, refIns)
					}
				case 4: // Remove current mapping (or a stale box half the time)
					cur, ok := ref.get(key)
					if !ok {
						continue
					}
					victim := cur
					if r.Intn(2) == 0 {
						victim = &box{key: key, gen: -1} // never-inserted identity: both must refuse
					}
					if rem, refRem := c.Remove(key, victim), ref.remove(key, victim); rem != refRem {
						t.Fatalf("op %d Remove(%q,%d): cache %v vs ref %v", op, key, victim.gen, rem, refRem)
					}
				}
			}
			if c.Len() != ref.len() {
				t.Fatalf("final occupancy: cache %d vs ref %d", c.Len(), ref.len())
			}
			// With zero evictions the fill identity must be exact.
			st := sumShardStats(c)
			if ev := c.Evictions(); ev != 0 {
				t.Fatalf("capacity sized above key space, yet %d evictions", ev)
			}
			wantLen := int(st.Misses+st.WarmFills) - removalsIn(c, ref)
			if c.Len() != wantLen {
				t.Fatalf("entries %d != misses %d + warmFills %d - removals %d", c.Len(), st.Misses, st.WarmFills, removalsIn(c, ref))
			}
		})
	}
}

// removalsIn recomputes successful removals from the fill/occupancy
// identity — the cache does not count removals itself (the Service layer
// does), so the test derives them: removals = fills − entries.
func removalsIn(c *Cache[*box], ref *refCache) int {
	st := sumShardStats(c)
	return int(st.Misses+st.WarmFills) - ref.len()
}

// sumShardStats folds ShardStats into one ShardStat.
func sumShardStats(c *Cache[*box]) ShardStat {
	var total ShardStat
	for _, ss := range c.ShardStats() {
		total.Hits += ss.Hits
		total.Misses += ss.Misses
		total.Evictions += ss.Evictions
		total.WarmFills += ss.WarmFills
		total.Entries += ss.Entries
		total.CostAdded += ss.CostAdded
		total.CostEvicted += ss.CostEvicted
		total.CostRemoved += ss.CostRemoved
		total.CostSaved += ss.CostSaved
	}
	return total
}

// TestConcurrentHarnessInvariants is the randomized interleaving hammer:
// goroutines fire Get/GetOrAdd/Add/SetCost/Remove at a small key space
// under forced-high GOMAXPROCS, with capacity tight enough that eviction
// runs hot, across shard counts {1, 2, default, 64}. Concurrency makes
// final states nondeterministic, so the reconciliation is per-operation
// identity invariants (a lookup for k only ever returns a box inserted
// under k; a removed box is never observed again by its remover) plus
// the closing counter algebra: entries == misses + warmFills − evictions
// − removals == Σ shard entries ≤ capacity, and the cost ledger identity
// resident == added − evicted − removed == Σ resident entry costs.
// Run under -race, this doubles as the memory-model check on hits that
// raise stamps under the read lock while writers hold the write lock.
func TestConcurrentHarnessInvariants(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 32 {
		runtime.GOMAXPROCS(32)
		defer runtime.GOMAXPROCS(prev)
	}
	const (
		workers = 16
		opsPer  = 3000
		keys    = 48
	)
	for _, shards := range harnessShardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := New[*box](keys/2, shards) // tight: eviction pressure on every shard
			var gen atomic.Int64
			var removals atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(7000 + w)))
					held := make(map[string]*box) // boxes this goroutine inserted or observed
					for op := 0; op < opsPer; op++ {
						key := fmt.Sprintf("k%02d", r.Intn(keys))
						switch r.Intn(6) {
						case 0, 1, 2: // GetOrAdd dominates, like the serving path
							fresh := &box{key: key, gen: int(gen.Add(1))}
							got, _ := c.GetOrAdd(key, func() *box { return fresh })
							if got.key != key {
								t.Errorf("GetOrAdd(%q) returned box for %q", key, got.key)
								return
							}
							held[key] = got
						case 3: // read-locked Get
							if got, ok := c.Get(key); ok && got.key != key {
								t.Errorf("Get(%q) returned box for %q", key, got.key)
								return
							}
						case 4: // warm fill with cost
							fresh := &box{key: key, gen: int(gen.Add(1))}
							c.Add(key, fresh, int64(1+r.Intn(1_000_000)))
						case 5: // conditional remove of a previously-seen box
							v, ok := held[key]
							if !ok {
								continue
							}
							if c.Remove(key, v) {
								removals.Add(1)
								delete(held, key)
								// Sequenced after a successful Remove, this
								// goroutine must never see that box again:
								// inserts always allocate fresh boxes, so
								// observing v here means the removal did
								// not take effect.
								if got, okNow := c.Get(key); okNow && got == v {
									t.Errorf("removed box for %q resurfaced", key)
									return
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			st := sumShardStats(c)
			entries := c.Len()
			if got := int(st.Misses+st.WarmFills) - int(st.Evictions) - int(removals.Load()); got != entries {
				t.Errorf("fill algebra: misses %d + warm %d - evictions %d - removals %d = %d, want entries %d",
					st.Misses, st.WarmFills, st.Evictions, removals.Load(), got, entries)
			}
			if st.Entries != entries {
				t.Errorf("shard entries sum %d != Len %d", st.Entries, entries)
			}
			if entries > c.Capacity() {
				t.Errorf("entries %d exceed capacity %d", entries, c.Capacity())
			}
			cs := c.CostStats()
			var resident uint64
			seen := 0
			c.Range(func(key string, v *box, cost int64) bool {
				if v.key != key {
					t.Errorf("Range: box for %q filed under %q", v.key, key)
				}
				resident += uint64(cost)
				seen++
				return true
			})
			if seen != entries {
				t.Errorf("Range visited %d entries, Len says %d", seen, entries)
			}
			if got := cs.Resident(); got != resident {
				t.Errorf("cost ledger: added %d - evicted %d - removed %d = %d, want Σ resident costs %d",
					cs.Added, cs.Evicted, cs.Removed, got, resident)
			}
		})
	}
}

// TestHitPathTakesOneReadLock pins the lock cost of each path with
// instrumentation: once the working set is resident, every hit —
// concurrent GetOrAdd and Get across every shard — acquires exactly one
// shard lock (the read lock), and the monitoring reads that run
// alongside production scrapes acquire none.
func TestHitPathTakesOneReadLock(t *testing.T) {
	const (
		keys    = 128
		workers = 8
		rounds  = 5000
	)
	c := New[*box](keys*MaxDefaultShards, 64)
	allKeys := make([]string, keys)
	for i := range allKeys {
		allKeys[i] = fmt.Sprintf("k%03d", i)
		k := allKeys[i]
		c.GetOrAdd(k, func() *box { return &box{key: k} })
	}
	before := c.LockAcquisitions()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				k := allKeys[r.Intn(keys)]
				if _, hit := c.GetOrAdd(k, func() *box { t.Errorf("miss for resident %q", k); return &box{key: k} }); !hit {
					return
				}
				if _, ok := c.Get(k); !ok {
					t.Errorf("Get(%q) missed a resident entry", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.LockAcquisitions()-before, uint64(2*workers*rounds); got != want {
		t.Fatalf("%d hits acquired %d shard locks, want exactly one each", want, got)
	}

	before = c.LockAcquisitions()
	c.Len()
	c.ShardStats()
	c.Occupancy()
	c.CostStats()
	c.WarmFills()
	if after := c.LockAcquisitions(); after != before {
		t.Fatalf("stats reads acquired %d shard locks, want 0", after-before)
	}
}

// referenceVictim is the eviction rule as a full scan over a shard's
// residents — the implementation the heap replaced, kept as the oracle:
// the entry with the lowest stamp + costBonus(cost), ties broken by the
// oldest insert.
func referenceVictim(s *shard[*box]) string {
	var victim *entry[*box]
	var vScore int64
	for _, e := range s.idx {
		score := e.liveScore()
		if victim == nil || score < vScore || (score == vScore && e.seq < victim.seq) {
			victim, vScore = e, score
		}
	}
	return victim.key
}

// checkHeap asserts the shard's heap invariants: idx and heap hold the
// same entries, every pos is right, the (score, seq) order holds, and no
// recorded score is above its live score.
func checkHeap(t *testing.T, s *shard[*box]) {
	t.Helper()
	if len(s.heap) != len(s.idx) || int(s.entries.Load()) != len(s.idx) {
		t.Fatalf("heap %d, idx %d, entries %d disagree", len(s.heap), len(s.idx), s.entries.Load())
	}
	for i, e := range s.heap {
		if e.pos != i || s.idx[e.key] != e {
			t.Fatalf("heap slot %d holds %q with pos %d, idx %p", i, e.key, e.pos, s.idx[e.key])
		}
		if i > 0 && s.less(i, (i-1)/2) {
			t.Fatalf("heap order broken at %d", i)
		}
		if e.score > e.liveScore() {
			t.Fatalf("%q recorded score %d above live %d", e.key, e.score, e.liveScore())
		}
	}
}

// TestEvictionMatchesReferenceScan replays a seeded single-shard tape of
// GetOrAdd, Get, Add, SetCost and Remove at capacity and checks every
// victim the heap picks against referenceVictim, taken just before the
// op. Costs span the bonus floor, so both the recency and the cost term
// decide victims, and Gets re-stamp entries so the heap must re-key them.
func TestEvictionMatchesReferenceScan(t *testing.T) {
	const (
		capacity = 32
		keys     = 96
		ops      = 20000
	)
	r := rand.New(rand.NewSource(1985))
	c := New[*box](capacity, 1)
	s := &c.shards[0]
	resident := func() map[string]bool {
		m := make(map[string]bool, len(s.idx))
		for k := range s.idx {
			m[k] = true
		}
		return m
	}
	victims := 0
	for op := 0; op < ops; op++ {
		key := fmt.Sprintf("k%02d", r.Intn(keys))
		before := resident()
		want := ""
		if len(before) == capacity && !before[key] {
			want = referenceVictim(s)
		}
		evictions := c.Evictions()
		inserted := false
		switch r.Intn(5) {
		case 0:
			_, hit := c.GetOrAdd(key, func() *box { return &box{key: key} })
			inserted = !hit
		case 1:
			c.Get(key)
		case 2:
			inserted = c.Add(key, &box{key: key}, r.Int63n(1<<25))
		case 3:
			if v, ok := c.Get(key); ok {
				c.SetCost(key, v, 1+r.Int63n(1<<25))
			}
		case 4:
			if v, ok := s.idx[key]; ok && r.Intn(4) == 0 {
				c.Remove(key, v.val)
			}
		}
		checkHeap(t, s)
		if !inserted || want == "" {
			if c.Evictions() != evictions {
				t.Fatalf("op %d evicted without a full-shard insert", op)
			}
			continue
		}
		victims++
		after := resident()
		if after[want] || !after[key] || len(after) != capacity || c.Evictions() != evictions+1 {
			t.Fatalf("op %d: inserting %q should evict %q; resident before %v, after %v", op, key, want, before, after)
		}
	}
	if victims < ops/10 {
		t.Fatalf("only %d evictions over %d ops: tape does not stress the heap", victims, ops)
	}
}

// TestCostAwareEviction pins the cost term in the eviction score: at
// equal recency, the entry that was expensive to compute outlives the
// cheap one even when the cheap one is newer, and the bonus is bounded —
// enough extra hits on the cheap entry still overturn it.
func TestCostAwareEviction(t *testing.T) {
	c := New[*box](2, 1)

	slow := &box{key: "slow"}
	c.GetOrAdd("slow", func() *box { return slow })
	if !c.SetCost("slow", slow, 5_000_000) { // a 5ms exact solve
		t.Fatal("SetCost refused the fill")
	}
	cheap := &box{key: "cheap"}
	c.GetOrAdd("cheap", func() *box { return cheap })
	if !c.SetCost("cheap", cheap, 2_000) { // a 2µs tree lookup
		t.Fatal("SetCost refused the fill")
	}

	// Under strict LRU the next insert would evict "slow" (oldest). The
	// cost bonus must keep it resident and sacrifice "cheap" instead.
	c.GetOrAdd("new", func() *box { return &box{key: "new"} })
	if _, ok := c.Get("slow"); !ok {
		t.Fatal("expensive entry was evicted at equal recency — cost bonus not applied")
	}
	if _, ok := c.Get("cheap"); ok {
		t.Fatal("cheap entry survived over the expensive one")
	}

	// Boundedness: ~8 ticks per cost doubling means a dozen insert ticks
	// without hits must eventually overturn even a 5ms entry. (The Gets
	// above re-stamped "slow", so push well past the bonus.)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("filler%03d", i)
		c.GetOrAdd(k, func() *box { return &box{key: k} })
	}
	if _, ok := c.Get("slow"); ok {
		t.Fatal("cold expensive entry pinned its slot past the bounded bonus")
	}

	if cs := c.CostStats(); cs.Added != 5_002_000 || cs.Resident() != cs.Added-cs.Evicted-cs.Removed {
		t.Fatalf("cost ledger off: %+v", cs)
	}
}

// TestSetCostConditions pins SetCost's guard rails: identity mismatch,
// double-set, absent key and non-positive costs are all refused.
func TestSetCostConditions(t *testing.T) {
	c := New[*box](8, 1)
	v := &box{key: "a"}
	c.GetOrAdd("a", func() *box { return v })

	if c.SetCost("a", &box{key: "a"}, 100) {
		t.Error("SetCost accepted a different identity")
	}
	if c.SetCost("missing", v, 100) {
		t.Error("SetCost accepted an absent key")
	}
	if c.SetCost("a", v, 0) || c.SetCost("a", v, -5) {
		t.Error("SetCost accepted a non-positive cost")
	}
	if !c.SetCost("a", v, 100) {
		t.Error("SetCost refused a valid first fill")
	}
	if c.SetCost("a", v, 200) {
		t.Error("SetCost overwrote an already-recorded cost")
	}
	if cs := c.CostStats(); cs.Added != 100 {
		t.Errorf("CostAdded = %d, want 100", cs.Added)
	}
}

// TestWarmAddSemantics pins Add: insert-if-absent, counted as a warm
// fill (not a miss), cost recorded at insert.
func TestWarmAddSemantics(t *testing.T) {
	c := New[*box](8, 2)
	v1 := &box{key: "a"}
	if !c.Add("a", v1, 300) {
		t.Fatal("Add refused an absent key")
	}
	if c.Add("a", &box{key: "a"}, 400) {
		t.Fatal("Add overwrote a resident key")
	}
	got, ok := c.Get("a")
	if !ok || got != v1 {
		t.Fatalf("Get after Add = (%p,%v), want (%p,true)", got, ok, v1)
	}
	st := sumShardStats(c)
	if st.WarmFills != 1 || st.Misses != 0 {
		t.Errorf("warmFills=%d misses=%d, want 1/0", st.WarmFills, st.Misses)
	}
	if st.CostAdded != 300 {
		t.Errorf("CostAdded=%d, want 300 (second Add must not count)", st.CostAdded)
	}
	if c.WarmFills() != 1 {
		t.Errorf("WarmFills()=%d, want 1", c.WarmFills())
	}
}
