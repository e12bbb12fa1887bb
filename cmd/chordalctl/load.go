package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/httpd"
	"repro/internal/trace"
)

// loadConfig carries the -load flags into runLoad.
type loadConfig struct {
	target      string        // "self" (boot an in-process server) or a base URL
	duration    time.Duration // warm-phase length (ignored when replaying a trace)
	concurrency int           // client workers
	zipfS       float64       // zipf exponent for warm-phase popularity (> 1)
	seed        int64         // workload RNG seed
	trace       string        // replay queries from this trace file
	traceRecord string        // record the warm-phase query stream here
	benchOut    string        // write the BENCH_*.json report here ("" = stdout summary only)
	benchTag    string        // tag field of the report (required with benchOut)
	benchMerge  string        // fold this go-test benchmark JSON into the report
}

// poolQuery is one prepared query of the workload: its scheme, terminals
// and the request body sent verbatim on every issue.
type poolQuery struct {
	scheme string
	terms  []int
	body   string
}

func makePoolQuery(scheme string, terms []int) poolQuery {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = strconv.Itoa(t)
	}
	return poolQuery{
		scheme: scheme,
		terms:  terms,
		body: fmt.Sprintf(`{"scheme":%q,"terminals":[%s]}`,
			scheme, strings.Join(parts, ",")),
	}
}

// phaseReport is the measured outcome of one load phase on the wire
// schema (BENCH_*.json, schema_version 2). Latencies are client-observed,
// milliseconds.
type phaseReport struct {
	Requests     int     `json:"requests"`
	Errors       int     `json:"errors"`
	Seconds      float64 `json:"seconds"`
	QPS          float64 `json:"qps"`
	P50ms        float64 `json:"p50_ms"`
	P95ms        float64 `json:"p95_ms"`
	P99ms        float64 `json:"p99_ms"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// AllocsPerRequest is the whole-process allocation count per request
	// over the phase — server and client side together, so it is only
	// measured (and only meaningful) in self mode.
	AllocsPerRequest float64 `json:"allocs_per_request,omitempty"`
	// TracedRequests counts the requests this phase marked with a sampled
	// traceparent and found back on the target's /v1/traces ring; Phases
	// aggregates their server-side span durations by phase name. Both are
	// absent against servers that do not trace.
	TracedRequests int                       `json:"traced_requests,omitempty"`
	Phases         map[string]phaseQuantiles `json:"phases,omitempty"`
}

// phaseQuantiles summarizes one server-side phase (span name) across the
// phase's traced requests, milliseconds.
type phaseQuantiles struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
}

// servingReport is the "serving" block of the report: the cold pass
// (every pool query once, all misses) and the warm pass (zipfian repeats
// or a trace replay).
type servingReport struct {
	Target      string      `json:"target"` // "self" or the URL
	Schemes     []string    `json:"schemes"`
	PoolQueries int         `json:"pool_queries"`
	Concurrency int         `json:"concurrency"`
	ZipfS       float64     `json:"zipf_s"`
	Seed        int64       `json:"seed"`
	Trace       string      `json:"trace,omitempty"`
	Cold        phaseReport `json:"cold"`
	Warm        phaseReport `json:"warm"`
}

// benchFile is the full BENCH_*.json schema (version 2): identification
// header, the host's core budget (so sharding numbers from a 1-core
// runner are never mistaken for contended measurements), the go-test
// benchmark rows merged via -bench-merge, and the serving measurements.
type benchFile struct {
	SchemaVersion int    `json:"schema_version"`
	Tag           string `json:"tag"`
	Benchtime     string `json:"benchtime,omitempty"`
	Cores         struct {
		Gomaxprocs int `json:"gomaxprocs"`
		Numcpu     int `json:"numcpu"`
	} `json:"cores"`
	Benchmarks json.RawMessage `json:"benchmarks,omitempty"`
	Serving    *servingReport  `json:"serving"`
}

// runLoad drives the load harness: build (or discover) the scheme mix and
// its query pool, run the cold pass then the warm pass against the target
// server, and report cold/warm QPS and latency quantiles — optionally as
// a schema-versioned BENCH_*.json file.
func runLoad(ctx context.Context, cfg loadConfig, stdout, stderr io.Writer, schemeOpts []core.Option) error {
	base := cfg.target
	if cfg.target == "self" {
		reg, err := loadSchemeMix(cfg.seed, schemeOpts)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srvCtx, stopSrv := context.WithCancel(ctx)
		srvDone := make(chan error, 1)
		// Unlimited in-flight: the harness measures solver and cache
		// throughput, and shed 429s would poison the latency sample. The
		// tracer never head-samples on its own (SampleProb 0) — only the
		// requests the driver marks with a sampled traceparent are
		// retained, over a ring deep enough to survive a fast warm phase.
		tracer := trace.New(trace.Config{RingSize: 4096, Seed: uint64(cfg.seed) + 1})
		h := httpd.New(reg, httpd.WithMaxInFlight(0), httpd.WithSchemeOptions(schemeOpts...),
			httpd.WithTracer(tracer))
		go func() { srvDone <- httpd.Serve(srvCtx, ln, h, 0) }()
		defer func() {
			stopSrv()
			<-srvDone
		}()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(stderr, "chordalctl: load target self (%s), schemes: %s\n",
			base, strings.Join(reg.Names(), " "))
	}
	base = strings.TrimSuffix(base, "/")

	schemes, err := fetchSchemeSizes(ctx, base)
	if err != nil {
		return fmt.Errorf("-load: listing schemes on %s: %w", base, err)
	}

	var pool []poolQuery
	if cfg.trace != "" {
		pool, err = readTrace(cfg.trace)
	} else {
		pool = buildQueryPool(cfg.seed, schemes)
	}
	if err != nil {
		return err
	}
	if len(pool) == 0 {
		return fmt.Errorf("-load: empty query pool")
	}

	d := &loadDriver{
		base:   base,
		client: &http.Client{Timeout: 30 * time.Second},
		seed:   cfg.seed,
	}

	// Cold pass: every pool query exactly once, shuffled across schemes,
	// so each one is a compulsory cache miss (on a fresh server).
	shuffled := append([]poolQuery(nil), pool...)
	rand.New(rand.NewSource(cfg.seed^0x5eed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	cold, err := d.runPhase(ctx, cfg, "cold", func(issue func(poolQuery)) {
		var next atomic.Int64
		runWorkers(cfg.concurrency, func(int) {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shuffled) || ctx.Err() != nil {
					return
				}
				issue(shuffled[i])
			}
		})
	})
	if err != nil {
		return err
	}

	// Warm pass: zipfian repeats over the pool for the configured
	// duration — or, when replaying, the recorded stream exactly once.
	var record *traceRecorder
	if cfg.traceRecord != "" {
		record = &traceRecorder{}
	}
	warm, err := d.runPhase(ctx, cfg, "warm", func(issue func(poolQuery)) {
		if cfg.trace != "" {
			var next atomic.Int64
			runWorkers(cfg.concurrency, func(int) {
				for {
					i := int(next.Add(1)) - 1
					if i >= len(pool) || ctx.Err() != nil {
						return
					}
					issue(pool[i])
				}
			})
			return
		}
		deadline := time.Now().Add(cfg.duration)
		runWorkers(cfg.concurrency, func(w int) {
			r := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			zipf := rand.NewZipf(r, cfg.zipfS, 1, uint64(len(pool)-1))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				q := pool[zipf.Uint64()]
				record.add(q)
				issue(q)
			}
		})
	})
	if err != nil {
		return err
	}
	if err := record.write(cfg.traceRecord); err != nil {
		return err
	}

	report := &servingReport{
		Target:      cfg.target,
		Schemes:     schemeNames(schemes),
		PoolQueries: len(pool),
		Concurrency: cfg.concurrency,
		ZipfS:       cfg.zipfS,
		Seed:        cfg.seed,
		Trace:       cfg.trace,
		Cold:        cold,
		Warm:        warm,
	}
	fmt.Fprintf(stdout, "load: cold %d requests (%d errors) %.0f qps, p50 %.2fms p99 %.2fms\n",
		cold.Requests, cold.Errors, cold.QPS, cold.P50ms, cold.P99ms)
	fmt.Fprintf(stdout, "load: warm %d requests (%d errors) %.0f qps, p50 %.2fms p99 %.2fms, hit rate %.2f\n",
		warm.Requests, warm.Errors, warm.QPS, warm.P50ms, warm.P99ms, warm.CacheHitRate)
	if cfg.benchOut == "" {
		return nil
	}
	return writeBenchFile(cfg, report, stdout)
}

// loadSchemeMix builds the self-mode multi-tenant catalog: one scheme per
// band of the chordality taxonomy, including the adversarial grid with no
// polynomial guarantee, all from the deterministic generators so the same
// seed reproduces the same workload bit for bit.
func loadSchemeMix(seed int64, schemeOpts []core.Option) (*core.Registry, error) {
	r := rand.New(rand.NewSource(seed))
	reg := core.NewRegistry()
	reg.Set("tree", gen.RandomTree(r, 200), schemeOpts...)
	reg.Set("dense", gen.CompleteBipartite(6, 10), schemeOpts...)
	// NestedChain is connected by construction; AlphaAcyclic's random
	// forests can split into components, which would make every terminal
	// set straddling two of them an error rather than a measurement.
	reg.Set("alpha", bipartite.FromHypergraph(gen.NestedChain(12, 4)).B, schemeOpts...)
	reg.Set("sparse", gen.RandomConnectedBipartite(r, 40, 30, 0.08), schemeOpts...)
	reg.Set("grid", gen.GridBipartite(6, 6), schemeOpts...)
	return reg, nil
}

// schemeSize is one serveable scheme and its node-id space, discovered
// over the wire so url mode works against any server.
type schemeSize struct {
	name  string
	nodes int
}

func schemeNames(schemes []schemeSize) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.name
	}
	return out
}

// fetchSchemeSizes lists the target's schemes via GET /v1/schemes.
func fetchSchemeSizes(ctx context.Context, base string) ([]schemeSize, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/schemes", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/schemes: status %d", resp.StatusCode)
	}
	var sr httpd.SchemesResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	var out []schemeSize
	for _, s := range sr.Schemes {
		out = append(out, schemeSize{name: s.Name, nodes: s.V1Nodes + s.V2Nodes})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("target serves no schemes")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// loadMaxTerminals caps the terminal-set size of generated queries: large
// enough to exercise multi-terminal planning, small enough that even the
// adversarial grid answers interactively.
const loadMaxTerminals = 8

// buildQueryPool samples a fixed pool of queries per scheme: distinct
// terminal sets of 2..loadMaxTerminals nodes. The pool is what the warm
// phase's zipf distribution ranges over, so its order is the popularity
// ranking.
func buildQueryPool(seed int64, schemes []schemeSize) []poolQuery {
	r := rand.New(rand.NewSource(seed + 1))
	const perScheme = 32
	var pool []poolQuery
	for _, s := range schemes {
		for q := 0; q < perScheme; q++ {
			k := 2 + r.Intn(loadMaxTerminals-1)
			if k > s.nodes {
				k = s.nodes
			}
			pool = append(pool, makePoolQuery(s.name, distinctInts(r, s.nodes, k)))
		}
	}
	// Interleave schemes so zipf's head is multi-tenant rather than all
	// rank-0..31 queries landing on one scheme.
	sort.SliceStable(pool, func(i, j int) bool {
		return i%perScheme < j%perScheme
	})
	return pool
}

// distinctInts samples k distinct ints in [0, n).
func distinctInts(r *rand.Rand, n, k int) []int {
	seen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		v := r.Intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// loadDriver issues pool queries against one target and snapshots its
// cache counters around each phase.
type loadDriver struct {
	base    string
	client  *http.Client
	seed    int64
	tracker *traceTracker // current phase's traceparent marking; nil between phases
}

// traceMarkEvery is the driver's traceparent marking stride: one request
// in this many carries a sampled traceparent, forcing the server to
// retain its trace. Sparse enough not to perturb the measurement, dense
// enough that even the cold pass yields phase samples.
const traceMarkEvery = 16

// traceTracker hands out deterministic sampled traceparent headers for
// a fraction of a phase's requests and remembers the trace ids issued,
// so the phase can later recognize its own traces on /v1/traces. A nil
// tracker marks nothing.
type traceTracker struct {
	seed uint64
	n    atomic.Uint64
	mu   sync.Mutex
	ids  map[string]bool
}

func newTraceTracker(seed int64, phase string) *traceTracker {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x517cc1b727220a95
	for _, c := range phase {
		h = (h ^ uint64(c)) * 0x9e3779b97f4a7c15
	}
	return &traceTracker{seed: h | 1, ids: map[string]bool{}}
}

// mark returns the traceparent header for this request, or "" for the
// (15 of 16) requests that travel unmarked.
func (t *traceTracker) mark() string {
	if t == nil {
		return ""
	}
	n := t.n.Add(1)
	if n%traceMarkEvery != 0 {
		return ""
	}
	// seed|1 keeps the id's high half nonzero, so the id as a whole can
	// never be the all-zero id the W3C spec rejects.
	tid := fmt.Sprintf("%016x%016x", t.seed, n)
	t.mu.Lock()
	t.ids[tid] = true
	t.mu.Unlock()
	return fmt.Sprintf("00-%s-%016x-01", tid, n)
}

// collect reports whether tid is one of this tracker's marked requests.
func (t *traceTracker) has(tid string) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ids[tid]
}

// runPhase measures one phase: wall time, client-side latency quantiles,
// error count, whole-process allocations (self mode measures itself) and
// the target's cache-counter movement.
func (d *loadDriver) runPhase(ctx context.Context, cfg loadConfig, name string, body func(issue func(poolQuery))) (phaseReport, error) {
	before, err := d.cacheCounters(ctx)
	if err != nil {
		return phaseReport{}, fmt.Errorf("-load: stats before %s phase: %w", name, err)
	}
	d.tracker = newTraceTracker(cfg.seed, name)
	var latMu sync.Mutex
	var latMS []float64
	var requests, errors atomic.Int64
	var m0, m1 runtime.MemStats
	if cfg.target == "self" {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	body(func(q poolQuery) {
		t0 := time.Now()
		ok := d.issue(ctx, q)
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		latMu.Lock()
		latMS = append(latMS, ms)
		latMu.Unlock()
		requests.Add(1)
		if !ok {
			errors.Add(1)
		}
	})
	elapsed := time.Since(start)
	if cfg.target == "self" {
		runtime.ReadMemStats(&m1)
	}
	after, err := d.cacheCounters(ctx)
	if err != nil {
		return phaseReport{}, fmt.Errorf("-load: stats after %s phase: %w", name, err)
	}

	n := int(requests.Load())
	if n == 0 {
		return phaseReport{}, fmt.Errorf("-load: %s phase issued no requests", name)
	}
	if e := int(errors.Load()); e == n {
		return phaseReport{}, fmt.Errorf("-load: every %s-phase request failed (%d of %d)", name, e, n)
	}
	lat := quantilesMS(latMS)
	rep := phaseReport{
		Requests: n,
		Errors:   int(errors.Load()),
		Seconds:  elapsed.Seconds(),
		QPS:      float64(n) / elapsed.Seconds(),
		P50ms:    lat.P50ms,
		P95ms:    lat.P95ms,
		P99ms:    lat.P99ms,
	}
	if lookups := after.lookups() - before.lookups(); lookups > 0 {
		rep.CacheHitRate = float64(after.hits-before.hits) / float64(lookups)
	}
	if cfg.target == "self" {
		rep.AllocsPerRequest = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	rep.Phases, rep.TracedRequests = d.phaseSpans(ctx, d.tracker)
	d.tracker = nil
	return rep, nil
}

// phaseSpans fetches the target's recent traces and aggregates the span
// durations of this phase's marked requests into exact per-phase-name
// latency quantiles. Best-effort by design: a target without tracing (or
// whose ring already evicted our traces) just yields no phase breakdown.
func (d *loadDriver) phaseSpans(ctx context.Context, tk *traceTracker) (map[string]phaseQuantiles, int) {
	if tk == nil {
		return nil, 0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/traces", nil)
	if err != nil {
		return nil, 0
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0
	}
	var tr httpd.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return nil, 0
	}
	durs := map[string][]float64{}
	found := 0
	for _, rec := range tr.Traces {
		if !tk.has(rec.TraceID) {
			continue
		}
		found++
		for _, sp := range rec.Spans {
			durs[sp.Name] = append(durs[sp.Name], sp.DurationMS)
		}
	}
	if len(durs) == 0 {
		return nil, found
	}
	out := make(map[string]phaseQuantiles, len(durs))
	for name, ms := range durs {
		out[name] = quantilesMS(ms)
	}
	return out, found
}

// quantilesMS summarizes raw durations in milliseconds by their exact
// nearest-rank p50/p95/p99: the smallest sample with at least p% of the
// samples at or below it. It sorts ms in place; ms must not be empty.
func quantilesMS(ms []float64) phaseQuantiles {
	sort.Float64s(ms)
	rank := func(p int) float64 { return ms[(p*len(ms)+99)/100-1] }
	return phaseQuantiles{Count: len(ms), P50ms: rank(50), P95ms: rank(95), P99ms: rank(99)}
}

// issue POSTs one query and reports whether it answered 200.
func (d *loadDriver) issue(ctx context.Context, q poolQuery) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		d.base+"/v1/connect", strings.NewReader(q.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := d.tracker.mark(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// cacheTotals aggregates the target's cache counters across schemes.
type cacheTotals struct {
	hits, misses, bypasses uint64
}

func (c cacheTotals) lookups() uint64 { return c.hits + c.misses + c.bypasses }

func (d *loadDriver) cacheCounters(ctx context.Context) (cacheTotals, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/stats", nil)
	if err != nil {
		return cacheTotals{}, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return cacheTotals{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cacheTotals{}, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var sr httpd.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return cacheTotals{}, err
	}
	var out cacheTotals
	for _, st := range sr.Schemes {
		out.hits += st.Hits
		out.misses += st.Misses
		out.bypasses += st.Bypasses
	}
	return out, nil
}

// runWorkers runs fn(worker) on n goroutines and waits for all of them.
func runWorkers(n int, fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// traceRecorder accumulates the warm-phase query stream. A nil recorder
// is a no-op, so the hot path can call add unconditionally.
type traceRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (t *traceRecorder) add(q poolQuery) {
	if t == nil {
		return
	}
	parts := make([]string, len(q.terms))
	for i, v := range q.terms {
		parts[i] = strconv.Itoa(v)
	}
	t.mu.Lock()
	t.lines = append(t.lines, q.scheme+": "+strings.Join(parts, " "))
	t.mu.Unlock()
}

func (t *traceRecorder) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	data := strings.Join(t.lines, "\n") + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		return fmt.Errorf("-trace-record: %w", err)
	}
	return nil
}

// readTrace parses a recorded trace: one "scheme: id id id" line per
// query ('#' comments and blank lines skipped).
func readTrace(path string) ([]poolQuery, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-trace: %w", err)
	}
	var pool []poolQuery
	for lineNo, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		scheme, rest, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("-trace: line %d: want \"scheme: id id ...\", got %q", lineNo+1, line)
		}
		fields := strings.Fields(rest)
		terms := make([]int, len(fields))
		for i, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("-trace: line %d: terminal %q: %w", lineNo+1, f, err)
			}
			terms[i] = v
		}
		pool = append(pool, makePoolQuery(strings.TrimSpace(scheme), terms))
	}
	return pool, nil
}

// writeBenchFile assembles the schema-versioned report, folding in the
// go-test benchmark rows when -bench-merge names the distilled JSON the
// trajectory script produced. Refuses to clobber an existing file: each
// PR's trajectory point is append-only history (FORCE at the script
// level re-generates deliberately).
func writeBenchFile(cfg loadConfig, report *servingReport, stdout io.Writer) error {
	out := benchFile{SchemaVersion: 2, Tag: cfg.benchTag, Serving: report}
	out.Cores.Gomaxprocs = runtime.GOMAXPROCS(0)
	out.Cores.Numcpu = runtime.NumCPU()
	if cfg.benchMerge != "" {
		data, err := os.ReadFile(cfg.benchMerge)
		if err != nil {
			return fmt.Errorf("-bench-merge: %w", err)
		}
		var merged struct {
			Benchtime  string          `json:"benchtime"`
			Benchmarks json.RawMessage `json:"benchmarks"`
		}
		if err := json.Unmarshal(data, &merged); err != nil {
			return fmt.Errorf("-bench-merge: parsing %s: %w", cfg.benchMerge, err)
		}
		out.Benchtime = merged.Benchtime
		out.Benchmarks = merged.Benchmarks
	}
	if _, err := os.Stat(cfg.benchOut); err == nil {
		return fmt.Errorf("-bench-out: %s already exists (trajectory files are append-only; pick a new tag or remove it deliberately)", cfg.benchOut)
	}
	f, err := os.Create(cfg.benchOut)
	if err != nil {
		return fmt.Errorf("-bench-out: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return fmt.Errorf("-bench-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-bench-out: %w", err)
	}
	fmt.Fprintf(stdout, "load: wrote %s (tag %s, schema v2)\n", cfg.benchOut, cfg.benchTag)
	return nil
}
