// Command servebench is the repository's serving benchmark. It boots the
// real httpd.Handler over a core.Registry on a loopback listener inside
// its own process, drives one workload with a closed loop of one client
// per CPU, checks every answer, and prints the metrics BENCHMARK.json
// names. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"
)

// A run sets its server up at least setupReps times, and goes on until
// setupBudget has passed or it has done so maxSetupReps times; setup_s
// is the median. Quick set-ups (warm-hot's) thus get more repetitions.
const (
	setupReps    = 5
	maxSetupReps = 25
	setupBudget  = 3 * time.Second
)

// minWindows is the fewest equal-work windows whose median stands for a
// run's throughput and CPU per query.
const minWindows = 5

func main() {
	workload := flag.String("workload", "", "workload to run: warm-hot, miss-churn or solve-batch")
	seed := flag.Int64("seed", 1, "seed of the request stream")
	seconds := flag.Float64("seconds", float64(spec().RunSeconds), "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if *printSpec {
		if err := writeSpec(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	w, err := newWorkload(*workload, *seed)
	if err != nil {
		fatal(err)
	}
	d := time.Duration(*seconds * float64(time.Second))
	res, err := run(context.Background(), w, *seed, d, *traced == 1, os.Stdout)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

func writeSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec())
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics by name, checks each against the spec's unit,
// and prints one human-readable line per metric with its sample count.
type report struct {
	units map[string]string
	out   io.Writer
	m     map[string]metric
}

func newReport(out io.Writer, traced bool) *report {
	r := &report{units: map[string]string{}, out: out, m: map[string]metric{}}
	list := spec().EndToEnd
	if traced {
		list = spec().PerLayer
	}
	for _, ms := range list {
		r.units[ms.Name] = ms.Unit
	}
	return r
}

func (r *report) set(name string, v float64, note string) {
	unit, ok := r.units[name]
	if !ok {
		panic("servebench: metric " + name + " is not in the spec")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.m[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "metric %-40s %14.6g %-6s %s\n", name, v, unit, note)
}

func (r *report) setQ(name string, q quantile, unit float64) {
	r.set(name, q.Value/unit, fmt.Sprintf("(exact, n=%d, beyond=%d)", q.N, q.Beyond))
}

// finish fills metrics the workload does not exercise with 0, so every
// run prints the whole list.
func (r *report) finish() map[string]metric {
	names := make([]string, 0, len(r.units))
	for n := range r.units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := r.m[n]; !ok {
			r.set(n, 0, "(not exercised by this workload)")
		}
	}
	return r.m
}

// header describes the run, so a figure can be re-checked.
type header struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Clients    int            `json:"clients"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Params     map[string]any `json:"params"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func run(ctx context.Context, w *workload, seed int64, d time.Duration, traced bool, out io.Writer) (*result, error) {
	clients := runtime.NumCPU()
	h := header{
		Workload: w.name, Seed: seed, Seconds: d.Seconds(), Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
		GoVersion: runtime.Version(), Commit: commit(), Params: w.params,
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "header %s\n", hb)

	snap, err := prepare(ctx, w)
	if err != nil {
		return nil, err
	}
	var sh *spanHandler
	var wrap func(http.Handler) http.Handler
	if traced {
		wrap = func(next http.Handler) http.Handler {
			sh = &spanHandler{next: next}
			return sh
		}
	}
	live, ln, setups, err := setup(ctx, w, snap, wrap)
	if err != nil {
		return nil, err
	}
	defer ln.stop()
	chk, err := newChecker(ctx, w, live, seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var next atomic.Int64
	// Warm-up: connections open and the first requests' one-off costs
	// are paid before anything is timed.
	runLoop(w, ln.base, clients, min(time.Second, d/10), &next, chk, false)

	rep := newReport(out, traced)
	if !traced {
		st0 := statsSum(live)
		res := runLoop(w, ln.base, clients, d, &next, chk, false)
		res.failed += chk.reference(ctx, live, res.keep)
		st1 := statsSum(live)
		fmt.Fprintf(out, "loop %v; cache hits %d misses %d bypasses %d evictions %d\n", res,
			st1.Hits-st0.Hits, st1.Misses-st0.Misses, st1.Bypasses-st0.Bypasses, st1.Evictions-st0.Evictions)
		answered := float64(res.answered())
		lat := res.latencyMS.sorted()
		// Throughput and CPU per query are medians over equal-work
		// windows, so a stretch of the run on a slowed machine moves them
		// only if it covers half the windows. A run too short for
		// minWindows falls back to the whole-run figures.
		qps, cpuUS := res.windows(w)
		overallQPS, overallCPU := answered/res.elapsed.Seconds(), us(res.cpu)/answered
		if len(qps) < minWindows {
			qps, cpuUS = []float64{overallQPS}, []float64{overallCPU}
		}
		rep.set("throughput_qps", median(qps), fmt.Sprintf("(median of %d windows of %d requests; whole run %.6g: %d queries in %d requests)",
			len(qps), w.window, overallQPS, res.answered(), res.requests))
		rep.setQ("latency_p50_ms", exactQuantile(lat, 0.50), 1)
		rep.setQ("latency_p99_ms", exactQuantile(lat, 0.99), 1)
		rep.set("success_rate", answered/float64(res.attempted), fmt.Sprintf("(error_rate %.6g: %d of %d failed, refused or wrong)",
			float64(res.failed)/float64(res.attempted), res.failed, res.attempted))
		totals := make([]float64, len(setups))
		for i, s := range setups {
			totals[i] = s.total.Seconds()
		}
		rep.set("setup_s", median(totals), fmt.Sprintf("(median of %d set-ups: %v)", len(totals), fmtFloats(totals)))
		rep.set("cpu_us_per_query", median(cpuUS), fmt.Sprintf("(process user+system, clients included; median of %d windows; whole run %.6g)", len(cpuUS), overallCPU))
		rep.set("alloc_kb_per_query", float64(res.allocB)/1024/answered, "(process heap allocations, clients included)")
		rep.set("heap_peak_mb", float64(res.heapPeakB)/(1<<20), "(live heap after GC: median over the seconds of each second's peak)")
		return &result{Correct: res.failed == 0 && !res.exhausted, Attempted: res.attempted, Failed: res.failed, Metrics: rep.finish()}, nil
	}
	return tracedRun(ctx, w, snap, live, sh, ln, chk, setups, &next, clients, d, rep)
}

func fmtFloats(xs []float64) string {
	out := "["
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4g", x)
	}
	return out + "]"
}

// tracedRun measures the per-layer metrics. It first repeats the
// untraced loop for half the run (the baseline of the tracing overhead,
// and the source of the runtime figures), then runs the traced loop and
// the in-process replays, each replay capped at a quarter of the run.
func tracedRun(ctx context.Context, w *workload, snap []byte, live *stack, sh *spanHandler, ln *listener,
	chk *checker, setups []setupTimes, next *atomic.Int64, clients int, d time.Duration, rep *report) (*result, error) {
	base := runLoop(w, ln.base, clients, d/2, next, chk, false)
	sh.on.Store(true)
	st0 := statsSum(live)
	tl := runLoop(w, ln.base, clients, d, next, chk, true)
	st1 := statsSum(live)
	sh.on.Store(false)
	failed := base.failed + tl.failed + chk.reference(ctx, live, append(base.keep, tl.keep...))
	fmt.Fprintf(rep.out, "untraced %v; traced %v\n", base, tl)

	handlerSpans := map[int]span{}
	sh.mu.Lock()
	for _, s := range sh.log {
		handlerSpans[s.id] = s
	}
	sh.mu.Unlock()
	var ids []int
	for _, c := range tl.spans {
		if _, ok := handlerSpans[c.id]; ok {
			ids = append(ids, c.id)
		}
	}
	sort.Ints(ids)

	fresh, _, err := build(ctx, w, snap)
	if err != nil {
		return nil, err
	}
	lr := &layerReplay{coreNS: map[int]int64{}, cacheNS: map[int]int64{}, steinerNS: map[int]int64{},
		allHit: map[int]bool{}, algUS: map[string]sample{}}
	budget := d / 4
	replayCache(w, live, ids, clients, budget, lr)
	replaySteiner(ctx, w, live, ids, clients, budget, lr)
	replayCore(ctx, w, fresh, ids, clients, budget, lr)
	allocs, bytesPer, allocsOK := handlerAllocs(w, sh.next, next, 1000, d/8)
	if !allocsOK {
		failed++
	}

	// Per-request layer times over the requests every replay reached.
	clientByID := map[int]clientSpan{}
	for _, c := range tl.spans {
		clientByID[c.id] = c
	}
	var handlerUS, netSelfUS, httpdSelfUS, hitUS, missSelfUS, batchSelfMS sample
	var rows []reqTimes
	var solverNS, handlerNS float64
	for _, id := range ids {
		c, hs := clientByID[id], handlerSpans[id]
		t := reqTimes{client: c.end - c.start, handler: hs.end - hs.start}
		handlerUS = append(handlerUS, float64(t.handler)/1e3)
		netSelfUS = append(netSelfUS, float64(t.client-t.handler)/1e3)
		coreNS, ok := lr.coreNS[id]
		if !ok {
			continue
		}
		t.core = coreNS
		_, hasCache := lr.cacheNS[id]
		_, hasSteiner := lr.steinerNS[id]
		computes := w.bypass || (hasCache && !lr.allHit[id])
		if (!w.bypass && !hasCache) || (computes && !hasSteiner) {
			continue
		}
		t.cache, t.steiner = lr.cacheNS[id], lr.steinerNS[id]
		rows = append(rows, t)
		self := t.selfTimes()
		httpdSelfUS = append(httpdSelfUS, float64(self[1])/1e3)
		switch req, _ := w.next(id); {
		case req.batch:
			batchSelfMS = append(batchSelfMS, float64(self[2])/1e6)
		case lr.allHit[id]:
			hitUS = append(hitUS, float64(t.core)/1e3)
		default:
			missSelfUS = append(missSelfUS, float64(self[2])/1e3)
		}
		solverNS += float64(t.steiner)
		handlerNS += float64(t.handler)
	}
	rep.setQ("httpd.handler_us.p50", handlerUS.q(0.50), 1)
	rep.setQ("httpd.handler_us.p99", handlerUS.q(0.99), 1)
	rep.setQ("httpd.self_us.p50", httpdSelfUS.q(0.50), 1)
	rep.set("httpd.allocs_per_req", allocs, "(in-process ServeHTTP via httptest)")
	rep.set("httpd.bytes_per_req", bytesPer, "(in-process ServeHTTP via httptest)")
	rep.setQ("net.roundtrip_self_us.p50", netSelfUS.q(0.50), 1)
	rep.setQ("core.connect_hit_us.p50", hitUS.q(0.50), 1)
	rep.setQ("cache.hit_ns.p50", lr.hitNS.q(0.50), 1)
	rep.set("cache.locks_per_request", lr.locksPerReq, "(replica cache)")
	rep.setQ("cache.insert_us.p50", lr.insertUS.q(0.50), 1)
	rep.setQ("cache.insert_us.p99", lr.insertUS.q(0.99), 1)
	if m := st1.Misses - st0.Misses; m > 0 {
		rep.set("cache.evictions_per_miss", float64(st1.Evictions-st0.Evictions)/float64(m), fmt.Sprintf("(live Service, %d misses)", m))
	}
	rep.setQ("core.connect_miss_self_us.p50", missSelfUS.q(0.50), 1)
	if snap != nil {
		var dec, res []float64
		for _, s := range setups {
			dec = append(dec, ms(s.decode))
			res = append(res, ms(s.restore))
		}
		rep.set("snapshot.decode_ms", median(dec), fmt.Sprintf("(median of %d set-ups)", len(dec)))
		rep.set("core.restore_warmup_ms", median(res), fmt.Sprintf("(median of %d set-ups)", len(res)))
	}
	for _, alg := range []string{"algorithm1", "algorithm2", "exact", "heuristic"} {
		rep.setQ("steiner."+alg+"_us.p50", lr.algUS[alg].q(0.50), 1)
		rep.setQ("steiner."+alg+"_us.p99", lr.algUS[alg].q(0.99), 1)
	}
	if handlerNS > 0 {
		rep.set("steiner.share", solverNS/handlerNS, fmt.Sprintf("(over %d requests)", len(rows)))
	}
	rep.setQ("core.batch_self_ms.p50", batchSelfMS.q(0.50), 1)
	if lr.batches > 0 {
		rep.set("core.planner_groups_per_batch", lr.plannerGroups, fmt.Sprintf("(%d batches)", lr.batches))
		rep.set("core.planner_build_ms.mean", lr.plannerMS, "")
	}
	if w.name == "solve-batch" {
		freeze, classify := compileTimes(w)
		for _, sc := range solveBatchSchemes {
			rep.set("chordality.classify_ms."+sc, classify[sc], "")
			rep.set("bipartite.freeze_ms."+sc, freeze[sc], "")
		}
	}
	if lookups := (st1.Hits - st0.Hits) + (st1.Misses - st0.Misses) + (st1.Bypasses - st0.Bypasses); lookups > 0 {
		rep.set("core.hit_rate", float64(st1.Hits-st0.Hits)/float64(lookups), fmt.Sprintf("(live Service, %d queries)", lookups))
		rep.set("core.bypass_rate", float64(st1.Bypasses-st0.Bypasses)/float64(lookups), "")
	}
	if n := base.answered(); n > 0 {
		rep.set("runtime.gc_cycles_per_kquery", 1000*float64(base.gcCycles)/float64(n), fmt.Sprintf("(untraced loop, %d GCs)", base.gcCycles))
	}
	rep.set("runtime.gc_pause_ms.total", ms(base.gcPause), "(untraced loop)")
	rep.set("runtime.heap_peak_mb", float64(base.heapPeakB)/(1<<20), "(untraced loop)")
	baseQPS := float64(base.answered()) / base.elapsed.Seconds()
	tracedQPS := float64(tl.answered()) / tl.elapsed.Seconds()
	rep.set("bench.trace_overhead_pct", 100*(baseQPS-tracedQPS)/baseQPS, fmt.Sprintf("(untraced %.6g/s, traced %.6g/s)", baseQPS, tracedQPS))
	rep.set("bench.layer_sum_gap_pct", layerSumGapPct(rows), fmt.Sprintf("(%d requests; tolerance %.0f%%)", len(rows), layerSumTolerancePct))
	if err := writeSpans(w.name, rows); err != nil {
		fmt.Fprintln(rep.out, "spans not written:", err)
	}
	return &result{Correct: failed == 0 && !tl.exhausted && !base.exhausted, Attempted: base.attempted + tl.attempted,
		Failed: failed, Metrics: rep.finish()}, nil
}

// layerSumTolerancePct is how far the layer self times may over-account
// the client wall time before the traced run's breakdown is suspect.
const layerSumTolerancePct = 10.0

// spansDir is where a traced run leaves its per-request layer times,
// inside the build directory the run script already uses.
const spansDir = ".bench_build/spans"

func writeSpans(workload string, rows []reqTimes) error {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spansDir, "spans-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range rows {
		if err := enc.Encode(map[string]int64{
			"client_ns": t.client, "handler_ns": t.handler, "core_ns": t.core, "cache_ns": t.cache, "steiner_ns": t.steiner,
		}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
