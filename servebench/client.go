package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/httpd"
	"repro/internal/intset"
	"repro/internal/steiner"
)

// checker verifies every answer a client receives. Each tree is decoded
// and validated against the scheme and the terminals with
// steiner.Tree.ValidateFrozen. A seeded sample is kept for a bit-for-bit
// comparison with a direct core.Connector.Connect after the loop, so the
// reference solves never run inside the timed window. Warm-hot answers
// repeat, so each pool entry's first response is checked in full against
// its reference answer and later responses must equal those bytes.
type checker struct {
	w      *workload
	seed   int64
	frozen []*graph.Frozen
	// expect holds the reference answer of each warm-hot pool entry.
	expect []httpd.Answer
	mu     sync.Mutex
	known  map[int][]byte
}

func newChecker(ctx context.Context, w *workload, s *stack, seed int64) (*checker, error) {
	c := &checker{w: w, seed: seed, known: map[int][]byte{}}
	for _, sc := range w.schemes {
		c.frozen = append(c.frozen, sc.b.Freeze().G())
	}
	if w.name == "warm-hot" {
		for _, q := range w.warm {
			conn, err := s.svcs[q.scheme].Connector().Connect(ctx, q.terminals, w.queryOptions(q.scheme)...)
			if err != nil {
				return nil, err
			}
			c.expect = append(c.expect, answerOf(conn))
		}
	}
	return c, nil
}

// answerOf renders a Connection the way the wire carries it, minus the
// labels (which the tree check covers through the node ids).
func answerOf(conn core.Connection) httpd.Answer {
	edges := make([][2]int, len(conn.Tree.Edges))
	for i, e := range conn.Tree.Edges {
		edges[i] = [2]int{e.U, e.V}
	}
	return httpd.Answer{
		Method: conn.Method.String(), Optimal: conn.Optimal, V2Optimal: conn.V2Optimal,
		Rationale: conn.Rationale, Nodes: append([]int{}, conn.Tree.Nodes...), Edges: edges,
	}
}

func sameAnswer(a, b httpd.Answer) bool {
	return a.Method == b.Method && a.Optimal == b.Optimal && a.V2Optimal == b.V2Optimal &&
		a.Rationale == b.Rationale && slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Edges, b.Edges)
}

// validate checks one answer's tree against the scheme and terminals.
func (c *checker) validate(si int, terms []int, a *httpd.Answer) bool {
	t := steiner.Tree{Nodes: intset.Set(a.Nodes), Edges: make([]graph.Edge, len(a.Edges))}
	for i, e := range a.Edges {
		t.Edges[i] = graph.Edge{U: e[0], V: e[1]}
	}
	return t.ValidateFrozen(c.frozen[si], terms) == nil
}

// sampled picks about one query in 16 for the bit-for-bit comparison,
// from the seed and the query's position only.
func (c *checker) sampled(i, j int) bool {
	x := uint64(c.seed) ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(j+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x%16 == 0
}

// kept is one sampled answer awaiting its reference comparison.
type kept struct {
	scheme int
	terms  []int
	answer httpd.Answer
}

// check returns how many of req's queries failed, appending sampled
// answers to keep.
func (c *checker) check(i int, req request, status int, body []byte, keep *[]kept) int {
	if status != http.StatusOK {
		return req.size()
	}
	if !req.batch {
		if req.key >= 0 {
			c.mu.Lock()
			want, ok := c.known[req.key]
			c.mu.Unlock()
			if ok {
				if bytes.Equal(want, body) {
					return 0
				}
				return 1
			}
		}
		var resp httpd.ConnectResponse
		if json.Unmarshal(body, &resp) != nil || !c.validate(req.scheme, req.queries[0], &resp.Answer) {
			return 1
		}
		if req.key >= 0 {
			if !sameAnswer(resp.Answer, c.expect[req.key]) {
				return 1
			}
			c.mu.Lock()
			c.known[req.key] = bytes.Clone(body)
			c.mu.Unlock()
		} else if c.sampled(i, 0) {
			*keep = append(*keep, kept{req.scheme, req.queries[0], resp.Answer})
		}
		return 0
	}
	var resp httpd.BatchResponse
	if json.Unmarshal(body, &resp) != nil || len(resp.Results) != req.size() {
		return req.size()
	}
	failed := 0
	for j, item := range resp.Results {
		if item.Error != nil || item.Answer == nil || !slices.Equal(item.Terminals, req.queries[j]) ||
			!c.validate(req.scheme, req.queries[j], item.Answer) {
			failed++
			continue
		}
		if c.sampled(i, j) {
			*keep = append(*keep, kept{req.scheme, req.queries[j], *item.Answer})
		}
	}
	return failed
}

// reference compares the kept answers with direct Connector.Connect
// calls and returns how many differ.
func (c *checker) reference(ctx context.Context, s *stack, ks []kept) int {
	bad := 0
	for _, k := range ks {
		conn, err := s.svcs[k.scheme].Connector().Connect(ctx, k.terms, c.w.queryOptions(k.scheme)...)
		if err != nil || !sameAnswer(answerOf(conn), k.answer) {
			bad++
		}
	}
	return bad
}

// clientSpan is one request as its client saw it.
type clientSpan struct {
	id         int
	start, end int64
}

// loopResult is what one closed-loop run measured.
type loopResult struct {
	elapsed   time.Duration
	requests  int
	attempted int // queries, counting each query of a batch
	failed    int
	exhausted bool
	latencyMS sample // per request; a failed request counts as +Inf
	spans     []clientSpan
	keep      []kept
	cpu       time.Duration // process user + system
	allocB    uint64
	gcCycles  uint32
	gcPause   time.Duration
	heapPeakB uint64
	// marks holds the clock and process CPU time at which each request
	// whose id is a multiple of the workload's window was sent.
	marks []mark
}

// mark is a window boundary: request id, monotonic time and process CPU
// time when it was sent.
type mark struct {
	id      int
	at, cpu time.Duration
}

// windows splits the loop into runs of w.window consecutive request ids
// between two marks, and returns each window's queries per second and
// CPU microseconds per query. A window holds the same requests whatever
// the clients' timing, so on solve-batch, whose window is one cycle of
// its pool, every window is the same work.
func (r *loopResult) windows(w *workload) (qps, cpuUS []float64) {
	for k := 0; k+1 < len(r.marks); k++ {
		a, b := r.marks[k], r.marks[k+1]
		if b.id-a.id != w.window {
			continue
		}
		queries := 0
		for i := a.id; i < b.id; i++ {
			req, _ := w.next(i)
			queries += req.size()
		}
		qps = append(qps, float64(queries)/(b.at-a.at).Seconds())
		cpuUS = append(cpuUS, us(b.cpu-a.cpu)/float64(queries))
	}
	return qps, cpuUS
}

func (r *loopResult) answered() int { return r.attempted - r.failed }

// encode renders req as its HTTP body.
func (w *workload) encode(req request) []byte {
	sc := w.schemes[req.scheme]
	var v any
	if req.batch {
		v = httpd.BatchRequest{Scheme: sc.name, Queries: req.queries, ExactLimit: sc.exactLimit, CacheBypass: w.bypass}
	} else {
		v = httpd.ConnectRequest{Scheme: sc.name, Terminals: req.queries[0], ExactLimit: sc.exactLimit, CacheBypass: w.bypass}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of ints and strings always marshal
	}
	return b
}

func (r request) path() string {
	if r.batch {
		return "/v1/batch"
	}
	return "/v1/connect"
}

// maxSamples bounds the requests one client sends in one loop: about
// ten times the fastest rate measured here, over fifteen seconds.
const maxSamples = 1 << 21

// runLoop drives the server with a closed loop of `clients` clients, each
// on its own connection, for d. Request ids continue from *next, so
// successive loops of one run never resend a miss-churn key.
func runLoop(w *workload, base string, clients int, d time.Duration, next *atomic.Int64, chk *checker, traced bool) *loopResult {
	res := &loopResult{}
	type perClient struct {
		lat       sample
		spans     []clientSpan
		keep      []kept
		requests  int
		attempted int
		failed    int
		exhausted bool
	}
	per := make([]perClient, clients)
	for ci := range per {
		per[ci].lat = offHeap[float64](maxSamples)
		if traced {
			per[ci].spans = offHeap[clientSpan](maxSamples)
		}
	}
	stopHeap := sampleHeap(&res.heapPeakB)
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	var marksMu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(clients)
	for ci := range per {
		go func(pc *perClient) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			bodies := map[int][]byte{}
			var buf bytes.Buffer
			for time.Now().Before(deadline) && len(pc.lat) < cap(pc.lat) {
				i := int(next.Add(1) - 1)
				req, ok := w.next(i)
				if !ok {
					pc.exhausted = true
					return
				}
				body, cached := bodies[req.key]
				if !cached {
					body = w.encode(req)
					if req.key >= 0 {
						bodies[req.key] = body
					}
				}
				hr, err := http.NewRequest(http.MethodPost, base+req.path(), bytes.NewReader(body))
				if err != nil {
					panic(err) // the base URL is our own listener's
				}
				hr.Header.Set("Content-Type", "application/json")
				if traced {
					hr.Header.Set(reqHeader, strconv.Itoa(i))
				}
				if i%w.window == 0 {
					m := mark{id: i, at: time.Since(start), cpu: cpuTime()}
					marksMu.Lock()
					res.marks = append(res.marks, m)
					marksMu.Unlock()
				}
				t0 := since()
				status := 0
				buf.Reset()
				resp, err := hc.Do(hr)
				if err == nil {
					_, err = io.Copy(&buf, resp.Body)
					resp.Body.Close()
					status = resp.StatusCode
				}
				t1 := since()
				failed := req.size()
				if err == nil {
					failed = chk.check(i, req, status, buf.Bytes(), &pc.keep)
				}
				pc.requests++
				pc.attempted += req.size()
				pc.failed += failed
				lat := float64(t1-t0) / 1e6
				if failed > 0 {
					lat = math.Inf(1)
				}
				pc.lat = append(pc.lat, lat)
				if traced {
					pc.spans = append(pc.spans, clientSpan{i, t0, t1})
				}
			}
		}(&per[ci])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	after := readRuntime()
	stopHeap()
	res.latencyMS = offHeap[float64](clients * maxSamples)
	if traced {
		res.spans = offHeap[clientSpan](clients * maxSamples)
	}
	for _, pc := range per {
		res.latencyMS = append(res.latencyMS, pc.lat...)
		res.spans = append(res.spans, pc.spans...)
		res.keep = append(res.keep, pc.keep...)
		res.requests += pc.requests
		res.attempted += pc.attempted
		res.failed += pc.failed
		res.exhausted = res.exhausted || pc.exhausted
	}
	slices.SortFunc(res.marks, func(a, b mark) int { return a.id - b.id })
	res.cpu = after.cpu - before.cpu
	res.allocB = after.mem.TotalAlloc - before.mem.TotalAlloc
	res.gcCycles = after.mem.NumGC - before.mem.NumGC
	res.gcPause = time.Duration(after.mem.PauseTotalNs - before.mem.PauseTotalNs)
	return res
}

type runtimeReading struct {
	cpu time.Duration
	mem runtime.MemStats
}

func readRuntime() runtimeReading {
	r := runtimeReading{cpu: cpuTime()}
	runtime.ReadMemStats(&r.mem)
	return r
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeap polls the live heap — the bytes the last GC cycle marked
// reachable — every 2 ms until the returned stop function is called, and
// stores in *peak the median over the loop's whole seconds of each
// second's peak. The live heap changes only when a cycle ends, and cycles
// are further apart than the poll, so no cycle is missed. Unswept garbage
// is left out: it measures the GC's pacing, not what the server holds. A
// single peak is an extreme value of in-flight requests lining up with a
// cycle; the median of per-second peaks is the steady ceiling. stop waits
// for the poller to exit.
func sampleHeap(peak *uint64) (stop func()) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	done := make(chan struct{})
	exited := make(chan struct{})
	start := time.Now()
	var perSecond []float64
	read := func() {
		metrics.Read(s)
		if s[0].Value.Kind() != metrics.KindUint64 {
			return
		}
		sec := int(time.Since(start) / time.Second)
		for len(perSecond) <= sec {
			perSecond = append(perSecond, 0)
		}
		perSecond[sec] = max(perSecond[sec], float64(s[0].Value.Uint64()))
	}
	go func() {
		defer close(exited)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				if len(perSecond) > 1 {
					perSecond = perSecond[:len(perSecond)-1] // the partial last second
				}
				*peak = uint64(median(perSecond))
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

func (r *loopResult) String() string {
	return fmt.Sprintf("%d requests, %d queries, %d failed in %v, %d window marks", r.requests, r.attempted, r.failed, r.elapsed, len(r.marks))
}
