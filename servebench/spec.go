package main

// The benchmark's definition. BENCHMARK.json at the repository root is
// this, printed by `servebench -spec`; a test keeps the two equal.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func bound(b float64) *float64 { return &b }

// solveBatchSchemes names the per-scheme set-up metrics.
var solveBatchSchemes = []string{"tree400", "alpha-chain", "sparse200", "grid10"}

func spec() benchSpec {
	s := benchSpec{
		Command:    []string{"bash", "servebench/run.sh"},
		Paths:      []string{"servebench"},
		RunSeconds: 20,
		Workloads: []workloadSpec{
			{"warm-hot", "zipf hits on a warm cache over five schemes: httpd decode/render, net/http and the cache hit path; the solvers idle"},
			{"miss-churn", "never-repeated keys into a full cache booted from a warm snapshot: every request inserts and evicts one entry"},
			{"solve-batch", "16-query cache-bypass batches on one scheme per solver arm: the solvers and batch planner dominate"},
		},
		// Timing bounds are wide because the machine they were fixed on (a
		// 2-vCPU VM) varies by 10–30 % between runs of identical work; see
		// README.md. Allocation per query is nearly a count and holds a
		// tight bound; any failure at all breaks success_rate's.
		EndToEnd: []metricSpec{
			{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: bound(0.25)},
			{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: bound(0.25)},
			{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: bound(0.25)},
			{Name: "success_rate", Unit: "ratio", Better: "higher", Bound: bound(0.001)},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)},
			{Name: "cpu_us_per_query", Unit: "us", Better: "lower", Bound: bound(0.25)},
			{Name: "alloc_kb_per_query", Unit: "KiB", Better: "lower", Bound: bound(0.05)},
			{Name: "heap_peak_mb", Unit: "MiB", Better: "lower", Bound: bound(0.25)},
		},
	}
	layer := func(name, unit, better string) {
		s.PerLayer = append(s.PerLayer, metricSpec{Name: name, Unit: unit, Better: better})
	}
	layer("httpd.handler_us.p50", "us", "lower")
	layer("httpd.handler_us.p99", "us", "lower")
	layer("httpd.self_us.p50", "us", "lower")
	layer("httpd.allocs_per_req", "count", "lower")
	layer("httpd.bytes_per_req", "B", "lower")
	layer("net.roundtrip_self_us.p50", "us", "lower")
	layer("core.connect_hit_us.p50", "us", "lower")
	layer("cache.hit_ns.p50", "ns", "lower")
	layer("cache.locks_per_request", "count", "lower")
	layer("cache.insert_us.p50", "us", "lower")
	layer("cache.insert_us.p99", "us", "lower")
	layer("cache.evictions_per_miss", "count", "lower")
	layer("core.connect_miss_self_us.p50", "us", "lower")
	layer("snapshot.decode_ms", "ms", "lower")
	layer("core.restore_warmup_ms", "ms", "lower")
	for _, alg := range []string{"algorithm1", "algorithm2", "exact", "heuristic"} {
		layer("steiner."+alg+"_us.p50", "us", "lower")
		layer("steiner."+alg+"_us.p99", "us", "lower")
	}
	layer("steiner.share", "ratio", "lower")
	layer("core.batch_self_ms.p50", "ms", "lower")
	layer("core.planner_groups_per_batch", "count", "lower")
	layer("core.planner_build_ms.mean", "ms", "lower")
	for _, sc := range solveBatchSchemes {
		layer("chordality.classify_ms."+sc, "ms", "lower")
	}
	for _, sc := range solveBatchSchemes {
		layer("bipartite.freeze_ms."+sc, "ms", "lower")
	}
	layer("core.hit_rate", "ratio", "higher")
	layer("core.bypass_rate", "ratio", "higher")
	layer("runtime.gc_cycles_per_kquery", "count", "lower")
	layer("runtime.gc_pause_ms.total", "ms", "lower")
	layer("runtime.heap_peak_mb", "MiB", "lower")
	layer("bench.trace_overhead_pct", "%", "lower")
	layer("bench.layer_sum_gap_pct", "%", "lower")
	return s
}
