package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/gen"
)

// schemeSeed fixes the generated schemes. The --seed argument draws the
// request streams, not the schemes: a scheme's shape moves solver cost by
// more than any bound the benchmark could hold, so varying it per seed
// would turn a re-check on a fresh seed into a different benchmark.
const schemeSeed = 1985

// scheme is one registry entry a workload serves, with the per-request
// options its queries carry.
type scheme struct {
	name       string
	b          *bipartite.Graph
	exactLimit int // exact_limit sent on the wire; 0 keeps the default
}

// query is one terminal set addressed to one scheme.
type query struct {
	scheme    int // index into the workload's schemes
	terminals []int
}

// request is one HTTP request of a stream: a single /v1/connect query,
// or a /v1/batch of queries on one scheme.
type request struct {
	scheme  int
	queries [][]int
	batch   bool
	key     int // warm-hot pool index, -1 for requests that never repeat
}

func (r request) size() int { return len(r.queries) }

// workload is everything a run needs: the schemes, the cache capacity
// (the only per-workload server setting), the requests in stream order,
// and for miss-churn the warm entries its snapshot boots with.
type workload struct {
	name      string
	schemes   []scheme
	cacheSize int
	bypass    bool
	// next returns the i-th request of the stream; ok is false once a
	// finite key space is exhausted.
	next func(i int) (request, bool)
	// warm lists the queries restored from the snapshot's warmup section
	// before timing (miss-churn) or solved through the Service during
	// set-up (warm-hot).
	warm []query
	// window is how many consecutive requests make one measurement
	// window (see loopResult.windows); about half a second of each.
	window int
	params map[string]any
}

var workloadNames = []string{"warm-hot", "miss-churn", "solve-batch"}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "warm-hot":
		return warmHot(seed), nil
	case "miss-churn":
		return missChurn(seed), nil
	case "solve-batch":
		return solveBatch(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// warm-hot: the five chordality-band schemes of `chordalctl -load self`
// (16–200 nodes), a pool of 160 terminal sets warmed into the cache during
// set-up, and a zipf(s=1.2) stream over the pool on /v1/connect. Every
// request is a cache hit, so the time goes to httpd decode and render,
// net/http and the cache hit path; the solvers do nothing.
const (
	hotPoolPerScheme = 32
	hotMaxTerminals  = 8
	hotZipfS         = 1.2
	hotCacheSize     = 1024
	hotStreamLen     = 1 << 20
)

func warmHot(seed int64) *workload {
	r := rand.New(rand.NewSource(schemeSeed))
	schemes := []scheme{
		{name: "tree", b: gen.RandomTree(r, 200)},
		{name: "dense", b: gen.CompleteBipartite(6, 10)},
		{name: "alpha", b: bipartite.FromHypergraph(gen.NestedChain(12, 4)).B},
		{name: "sparse", b: gen.RandomConnectedBipartite(r, 40, 30, 0.08)},
		{name: "grid", b: gen.GridBipartite(6, 6)},
	}
	var pool []query
	for rank := 0; rank < hotPoolPerScheme; rank++ {
		// Interleaved by rank so the zipf head spans every scheme.
		for si, s := range schemes {
			n := s.b.N()
			k := min(2+r.Intn(hotMaxTerminals-1), n)
			pool = append(pool, query{scheme: si, terminals: distinctInts(r, n, k)})
		}
	}
	// The pool and its popularity ranking are fixed; the seed draws the
	// zipf sequence over them, once before timing, and the stream replays
	// it cyclically: warm-hot is about repeats, so wrapping round does not
	// change what it measures.
	ranks := make([]uint8, hotStreamLen)
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), hotZipfS, 1, uint64(len(pool)-1))
	for i := range ranks {
		ranks[i] = uint8(z.Uint64())
	}
	return &workload{
		name:      "warm-hot",
		schemes:   schemes,
		cacheSize: hotCacheSize,
		warm:      pool,
		window:    8192,
		next: func(i int) (request, bool) {
			k := int(ranks[i%len(ranks)])
			return request{scheme: pool[k].scheme, queries: [][]int{pool[k].terminals}, key: k}, true
		},
		params: map[string]any{
			"schemes": schemeSummary(schemes), "pool": len(pool), "zipf_s": hotZipfS,
			"max_terminals": hotMaxTerminals, "cache_size": hotCacheSize, "endpoint": "/v1/connect",
		},
	}
}

// miss-churn: one cheap-to-solve scheme (an 8×8 grid, exact
// Dreyfus–Wagner on 2–4 terminals in tens of µs) behind a cache booted
// full from a snapshot warmup section. Every request carries a terminal
// set never sent before, so each is a miss that inserts one entry and
// evicts one: the cache write path, not the solver, is what this loads.
const (
	churnGrid      = 8
	churnMinTerms  = 2
	churnMaxTerms  = 4
	churnCacheSize = 4096
	// churnWarm overfills the cache by a quarter, so every shard is full
	// however the keys hash and the first miss already evicts.
	churnWarm = churnCacheSize + churnCacheSize/4
)

func missChurn(seed int64) *workload {
	b := gen.GridBipartite(churnGrid, churnGrid)
	n := b.N()
	space := newSubsetSpace(n, churnMinTerms, churnMaxTerms, seed)
	warm := make([]query, churnWarm)
	for i := range warm {
		warm[i] = query{terminals: space.at(uint64(i))}
	}
	return &workload{
		name:      "miss-churn",
		schemes:   []scheme{{name: "grid8", b: b}},
		cacheSize: churnCacheSize,
		warm:      warm,
		window:    1024,
		next: func(i int) (request, bool) {
			k := uint64(churnWarm) + uint64(i)
			if k >= space.total {
				return request{}, false
			}
			return request{queries: [][]int{space.at(k)}, key: -1}, true
		},
		params: map[string]any{
			"scheme":     fmt.Sprintf("grid %dx%d (%d nodes)", churnGrid, churnGrid, n),
			"terminals":  fmt.Sprintf("%d-%d", churnMinTerms, churnMaxTerms),
			"cache_size": churnCacheSize, "warm_entries": churnWarm,
			"key_space": space.total, "endpoint": "/v1/connect",
		},
	}
}

// solve-batch: one scheme per solver arm, 16-query /v1/batch calls whose
// queries share hub terminals (so the planner groups them), all with
// cache_bypass as a bulk caller sends them. The solvers dominate, the
// cache does nothing, and httpd is amortised over 16 answers.
const (
	batchSize     = 16
	batchHubs     = 2
	batchMaxExtra = 3
	// batchPoolPerScheme is small enough that a run cycles the pool many
	// times, so a partial last cycle moves the totals little.
	batchPoolPerScheme = 8
)

func solveBatch(seed int64) *workload {
	r := rand.New(rand.NewSource(schemeSeed))
	schemes := []scheme{
		// (6,2)-chordal: Algorithm 2 plus the Algorithm 1 V2 check.
		{name: "tree400", b: gen.RandomTree(r, 400)},
		{name: "alpha-chain", b: bipartite.FromHypergraph(gen.NestedChain(20, 9)).B},
		// No guarantee, and an exact_limit below every query size: the
		// metric-closure 2-approximation.
		{name: "sparse200", b: gen.RandomConnectedBipartite(r, 100, 100, 0.02), exactLimit: 1},
		// No guarantee, within the exact limit: Dreyfus–Wagner.
		{name: "grid10", b: gen.GridBipartite(10, 10)},
	}
	// A fixed pool of batches, cycled in an order the seed draws afresh
	// for every cycle. Solver cost per terminal set is heavy-tailed, so a
	// pool drawn per seed would make a run's total work depend on the
	// seed by more than the bounds; with a fixed pool every complete
	// cycle is the same work, and the seed decides order and pairing.
	var pool []request
	for range batchPoolPerScheme {
		for si, sc := range schemes {
			n := sc.b.N()
			hubs := distinctInts(r, n, batchHubs)
			qs := make([][]int, batchSize)
			for j := range qs {
				// Each query holds one hub plus 1–3 further terminals, so
				// every query shares a terminal with another.
				set := map[int]bool{hubs[j%batchHubs]: true}
				for extra := 1 + r.Intn(batchMaxExtra); len(set) < 1+extra; {
					set[r.Intn(n)] = true
				}
				qs[j] = sortedKeys(set)
			}
			pool = append(pool, request{scheme: si, queries: qs, batch: true, key: -1})
		}
	}
	return &workload{
		name:    "solve-batch",
		schemes: schemes,
		bypass:  true,
		// One cycle of the pool: every window is the same 32 batches.
		window: len(pool),
		next: func(i int) (request, bool) {
			cycle := rand.New(rand.NewSource(seed ^ int64(i/len(pool)+1)*0x2545f4914f6cdd1d)).Perm(len(pool))
			return pool[cycle[i%len(pool)]], true
		},
		params: map[string]any{
			"schemes": schemeSummary(schemes), "batch_size": batchSize, "hubs": batchHubs, "pool": len(pool),
			"terminals": fmt.Sprintf("2-%d", 1+batchMaxExtra), "cache_bypass": true, "endpoint": "/v1/batch",
		},
	}
}

func schemeSummary(ss []scheme) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = fmt.Sprintf("%s(%d nodes)", s.name, s.b.N())
		if s.exactLimit > 0 {
			out[i] += fmt.Sprintf(" exact_limit=%d", s.exactLimit)
		}
	}
	return out
}

// distinctInts samples k distinct ints in [0, n), sorted.
func distinctInts(r *rand.Rand, n, k int) []int {
	set := map[int]bool{}
	for len(set) < k {
		set[r.Intn(n)] = true
	}
	return sortedKeys(set)
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// subsetSpace enumerates every k-subset of [0, n) for lo ≤ k ≤ hi in a
// seed-scrambled order: at(i) for distinct i < total are distinct sets.
// The scramble is the affine bijection i ↦ (a·i + b) mod total with a
// coprime to total, followed by combinatorial unranking, so the stream
// needs no memory of what it has sent.
type subsetSpace struct {
	n, lo   int
	counts  []uint64 // counts[k-lo] = C(n, k)
	total   uint64
	mul, ad uint64
}

func newSubsetSpace(n, lo, hi int, seed int64) *subsetSpace {
	s := &subsetSpace{n: n, lo: lo}
	for k := lo; k <= hi; k++ {
		c := binom(n, k)
		s.counts = append(s.counts, c)
		s.total += c
	}
	r := rand.New(rand.NewSource(seed))
	s.ad = uint64(r.Int63()) % s.total
	for s.mul = uint64(r.Int63())%s.total | 1; gcd(s.mul, s.total) != 1; s.mul += 2 {
	}
	return s
}

func (s *subsetSpace) at(i uint64) []int {
	hi, lo := bits.Mul64(s.mul, i%s.total)
	rank := (bits.Rem64(hi, lo, s.total) + s.ad) % s.total
	k := s.lo
	for _, c := range s.counts {
		if rank < c {
			break
		}
		rank -= c
		k++
	}
	// Unrank in the combinatorial number system: the largest element
	// first, each the largest c with C(c, j) ≤ the remaining rank.
	out := make([]int, k)
	c := s.n
	for j := k; j >= 1; j-- {
		c--
		for binom(c, j) > rank {
			c--
		}
		out[j-1] = c
		rank -= binom(c, j)
	}
	return out
}

func binom(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	r := uint64(1)
	for i := 1; i <= k; i++ {
		r = r * uint64(n-k+i) / uint64(i)
	}
	return r
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
