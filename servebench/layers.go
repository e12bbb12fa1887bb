package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bipartite"
	"repro/internal/cache"
	"repro/internal/chordality"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/steiner"
)

// The traced run. The live loop records two spans per request: the
// client's round trip and the benchmark's wrapper around
// httpd.Handler.ServeHTTP, matched by the request id header. The same
// requests are then replayed in-process, one layer at a time and with the
// same number of concurrent callers: through core.Service on a freshly
// built, identically configured stack; through a cache.Cache replica of
// the same capacity and shard count; and through the steiner solvers for
// every query that computes. A layer's self time for a request is its
// duration minus its children's durations for the same request.

// reqTimes is one request's duration at each layer, in nanoseconds.
type reqTimes struct {
	client, handler, core, cache, steiner int64
}

// selfTimes splits a request into the self time of each layer:
// net/http (client round trip minus handler), httpd (handler minus
// core), core (minus its cache and solver work), cache and steiner.
// A self time can come out negative when a replayed child ran slower
// than the live parent did.
func (t reqTimes) selfTimes() [5]int64 {
	return [5]int64{t.client - t.handler, t.handler - t.core, t.core - t.cache - t.steiner, t.cache, t.steiner}
}

// layerSumGapPct sums each layer's mean self time, computed from the
// layers' mean durations and clamped at zero, and compares the sum with
// the mean client wall time. Unclamped, the sum telescopes to the wall
// time exactly; the gap is the share a replay over-accounts, where a
// replayed child ran slower on average than its live parent.
func layerSumGapPct(ts []reqTimes) float64 {
	if len(ts) == 0 {
		return 0
	}
	var m reqTimes
	for _, t := range ts {
		m.client += t.client
		m.handler += t.handler
		m.core += t.core
		m.cache += t.cache
		m.steiner += t.steiner
	}
	var sum int64
	for _, s := range m.selfTimes() {
		sum += max(s, 0)
	}
	return 100 * float64(sum-m.client) / float64(m.client)
}

// layerReplay is the per-request output of the in-process replays.
type layerReplay struct {
	coreNS, cacheNS, steinerNS map[int]int64
	allHit                     map[int]bool
	hitNS, insertUS            sample
	algUS                      map[string]sample
	locksPerReq                float64
	plannerGroups, plannerMS   float64
	batches                    int
}

// forEach runs fn over ids with `clients` concurrent callers until every
// id is done or budget is spent.
func forEach(ids []int, clients int, budget time.Duration, fn func(id int)) {
	var next atomic.Int64
	deadline := time.Now().Add(budget)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if k >= len(ids) {
					return
				}
				fn(ids[k])
			}
		}()
	}
	wg.Wait()
}

// replayCache runs each request's lookups against a replica cache filled
// the way the live one was, and records which requests compute.
func replayCache(w *workload, live *stack, ids []int, clients int, budget time.Duration, lr *layerReplay) {
	if w.bypass {
		return // bulk callers never touch the cache
	}
	replicas := make([]*cache.Cache[*int], len(w.schemes))
	for si, svc := range live.svcs {
		st := svc.Stats()
		replicas[si] = cache.New[*int](st.Capacity, st.Shards)
	}
	for _, q := range w.warm {
		key := cacheKey(q.terminals)
		if w.name == "miss-churn" {
			// Restored entries carry solve costs under the 0.5 ms eviction
			// floor, so any sub-floor cost orders eviction the same way.
			replicas[q.scheme].Add(key, new(int), 1)
		} else {
			replicas[q.scheme].GetOrAdd(key, func() *int { return new(int) })
		}
	}
	var locks0 uint64
	for _, r := range replicas {
		locks0 += r.LockAcquisitions()
	}
	var mu sync.Mutex
	done := 0
	forEach(ids, clients, budget, func(id int) {
		req, _ := w.next(id)
		c := replicas[req.scheme]
		var total int64
		var hits, inserts []float64
		allHit := true
		for _, terms := range req.queries {
			key := cacheKey(terms)
			t0 := time.Now()
			v, hit := c.GetOrAdd(key, func() *int { return new(int) })
			t1 := time.Now()
			if hit {
				hits = append(hits, float64(t1.Sub(t0)))
			} else {
				allHit = false
				inserts = append(inserts, us(t1.Sub(t0)))
				c.SetCost(key, v, 1)
			}
			total += int64(time.Since(t0))
		}
		mu.Lock()
		lr.cacheNS[id] = total
		lr.allHit[id] = allHit
		lr.hitNS = append(lr.hitNS, hits...)
		lr.insertUS = append(lr.insertUS, inserts...)
		done++
		mu.Unlock()
	})
	var locks1 uint64
	for _, r := range replicas {
		locks1 += r.LockAcquisitions()
	}
	if done > 0 {
		lr.locksPerReq = float64(locks1-locks0) / float64(done)
	}
}

// cacheKey is the Service's key for a default-options query.
func cacheKey(terms []int) string { return "#" + intset.FromSlice(terms).Key() }

// replaySteiner runs the solver the Connector would dispatch to for
// every query that computes. A batch's queries run on as many workers as
// ConnectBatch uses, and the request's solver time is the union of their
// intervals.
func replaySteiner(ctx context.Context, w *workload, live *stack, ids []int, clients int, budget time.Duration, lr *layerReplay) {
	var mu sync.Mutex
	workers := runtime.GOMAXPROCS(0)
	forEach(ids, clients, budget, func(id int) {
		if !w.bypass {
			mu.Lock()
			hit, seen := lr.allHit[id]
			mu.Unlock()
			if !seen || hit {
				return
			}
		}
		req, _ := w.next(id)
		conn := live.svcs[req.scheme].Connector()
		limit := conn.ExactLimit()
		if l := w.schemes[req.scheme].exactLimit; l > 0 {
			limit = l
		}
		limit = min(limit, steiner.ExactTerminalLimit)
		calls := make([]interval, len(req.queries))
		algs := make([]map[string]float64, len(req.queries))
		var wg sync.WaitGroup
		var next atomic.Int64
		n := min(workers, len(req.queries))
		wg.Add(n)
		for range n {
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1) - 1)
					if j >= len(req.queries) {
						return
					}
					t0 := since()
					algs[j] = solve(ctx, conn.Frozen(), conn.Class(), req.queries[j], limit)
					calls[j] = interval{t0, since()}
				}
			}()
		}
		wg.Wait()
		span := interval{calls[0].start, calls[0].end}
		for _, c := range calls {
			span.start, span.end = min(span.start, c.start), max(span.end, c.end)
		}
		mu.Lock()
		lr.steinerNS[id] = span.end - span.start - selfTime(span, calls)
		for _, m := range algs {
			for alg, t := range m {
				lr.algUS[alg] = append(lr.algUS[alg], t)
			}
		}
		mu.Unlock()
	})
}

// solve mirrors core's dispatch and returns each solver's time in µs.
func solve(ctx context.Context, fb *bipartite.Frozen, class chordality.Class, terms []int, exactLimit int) map[string]float64 {
	out := map[string]float64{}
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		out[name] = us(time.Since(t0))
	}
	switch {
	case class.Chordal62:
		var t2, t1 steiner.Tree
		timed("algorithm2", func() { t2, _ = steiner.Algorithm2Frozen(ctx, fb.G(), terms) })
		timed("algorithm1", func() { t1, _ = steiner.Algorithm1Frozen(ctx, fb, terms) })
		_ = steiner.V2CountFrozen(fb, t2) == steiner.V2CountFrozen(fb, t1)
	case class.AlphaV1():
		timed("algorithm1", func() { _, _ = steiner.Algorithm1Frozen(ctx, fb, terms) })
	case len(terms) <= exactLimit:
		timed("exact", func() { _, _ = steiner.ExactFrozen(ctx, fb.G(), terms) })
	default:
		timed("heuristic", func() { _, _ = steiner.ApproximateFrozen(ctx, fb.G(), terms) })
	}
	return out
}

// replayCore sends each request straight to core.Service on a fresh
// stack built like the live one.
func replayCore(ctx context.Context, w *workload, fresh *stack, ids []int, clients int, budget time.Duration, lr *layerReplay) {
	var groups0, builds0 uint64
	var buildSum0 float64
	for _, svc := range fresh.svcs {
		g, b := svc.PlannerStats()
		groups0 += g.Count()
		builds0 += b.Count()
		buildSum0 += b.Sum()
	}
	var mu sync.Mutex
	batches := 0
	forEach(ids, clients, budget, func(id int) {
		req, _ := w.next(id)
		svc := fresh.svcs[req.scheme]
		opts := w.queryOptions(req.scheme)
		t0 := time.Now()
		if req.batch {
			svc.ConnectBatch(ctx, req.queries, opts...)
		} else {
			_, _ = svc.Connect(ctx, req.queries[0], opts...)
		}
		d := int64(time.Since(t0))
		mu.Lock()
		lr.coreNS[id] = d
		if req.batch {
			batches++
		}
		mu.Unlock()
	})
	var groups1, builds1 uint64
	var buildSum1 float64
	for _, svc := range fresh.svcs {
		g, b := svc.PlannerStats()
		groups1 += g.Count()
		builds1 += b.Count()
		buildSum1 += b.Sum()
	}
	lr.batches = batches
	if batches > 0 {
		lr.plannerGroups = float64(groups1-groups0) / float64(batches)
	}
	if builds1 > builds0 {
		lr.plannerMS = 1e3 * (buildSum1 - buildSum0) / float64(builds1-builds0)
	}
}

// handlerAllocs serves up to n further requests of the stream through
// the handler in-process, one at a time, and returns the heap
// allocations and bytes per request.
func handlerAllocs(w *workload, h http.Handler, next *atomic.Int64, n int, budget time.Duration) (allocs, bytesPer float64, ok bool) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(budget)
	done := 0
	ok = true
	for done < n && time.Now().Before(deadline) {
		req, more := w.next(int(next.Add(1) - 1))
		if !more {
			break
		}
		hr := httptest.NewRequest(http.MethodPost, req.path(), bytes.NewReader(w.encode(req)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, hr)
		ok = ok && rec.Code == http.StatusOK
		done++
	}
	runtime.ReadMemStats(&after)
	if done == 0 {
		return 0, 0, false
	}
	return float64(after.Mallocs-before.Mallocs) / float64(done), float64(after.TotalAlloc-before.TotalAlloc) / float64(done), ok
}

// compileTimes times the two compile steps core.New runs for each scheme.
func compileTimes(w *workload) (freezeMS, classifyMS map[string]float64) {
	freezeMS, classifyMS = map[string]float64{}, map[string]float64{}
	for _, sc := range w.schemes {
		t0 := time.Now()
		fb := sc.b.Freeze()
		t1 := time.Now()
		chordality.ClassifyFrozen(fb)
		freezeMS[sc.name], classifyMS[sc.name] = ms(t1.Sub(t0)), ms(time.Since(t1))
	}
	return freezeMS, classifyMS
}

// statsSum adds up the cache counters of every scheme's Service.
func statsSum(s *stack) core.CacheStats {
	var t core.CacheStats
	for _, svc := range s.svcs {
		st := svc.Stats()
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Bypasses += st.Bypasses
		t.Evictions += st.Evictions
	}
	return t
}
