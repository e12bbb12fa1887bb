package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/httpd"
	"repro/internal/trace"
)

// TestRunLoadSelf runs a very short self-mode load and checks the printed
// report plus the full BENCH_*.json schema: version, tag, cores, merged
// benchmarks and both serving phases.
func TestRunLoadSelf(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_t.json")
	merge := filepath.Join(dir, "micro.json")
	if err := os.WriteFile(merge, []byte(`{"benchtime":"0.1s","benchmarks":[{"name":"BenchmarkX","ns_per_op":42}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	args := []string{
		"-load", "self", "-load-duration", "200ms", "-load-concurrency", "2",
		"-seed", "7", "-bench-out", out, "-bench-tag", "t", "-bench-merge", merge,
	}
	if err := run(args, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	for _, want := range []string{"load: cold", "load: warm", "(0 errors)", "schema v2"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("bench file does not parse: %v", err)
	}
	if f.SchemaVersion != 2 || f.Tag != "t" {
		t.Fatalf("header = schema %d tag %q, want 2/t", f.SchemaVersion, f.Tag)
	}
	if f.Cores.Gomaxprocs < 1 || f.Cores.Numcpu < 1 {
		t.Fatalf("cores not recorded: %+v", f.Cores)
	}
	if !bytes.Contains(f.Benchmarks, []byte("BenchmarkX")) {
		t.Fatalf("merged benchmarks missing: %s", f.Benchmarks)
	}
	if f.Serving == nil || f.Serving.Target != "self" {
		t.Fatalf("serving section missing or wrong target: %+v", f.Serving)
	}
	for phase, r := range map[string]phaseReport{"cold": f.Serving.Cold, "warm": f.Serving.Warm} {
		if r.Requests == 0 || r.Errors != 0 || r.QPS <= 0 {
			t.Errorf("%s phase implausible: %+v", phase, r)
		}
		if r.P50ms <= 0 || r.P99ms < r.P50ms {
			t.Errorf("%s quantiles implausible: p50 %.3f p99 %.3f", phase, r.P50ms, r.P99ms)
		}
	}
	if f.Serving.Warm.CacheHitRate <= 0 {
		t.Errorf("warm hit rate = %g, want > 0 (zipf reuse)", f.Serving.Warm.CacheHitRate)
	}

	// The trajectory is append-only: a second run must refuse to clobber.
	if err := run(args, strings.NewReader(""), &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("overwrite err = %v, want refusal", err)
	}
}

// TestRunLoadTraceRoundTrip records the warm phase to a trace file, then
// replays it and checks replay issues exactly the recorded request count.
func TestRunLoadTraceRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "warm.trace")
	var stdout, stderr bytes.Buffer
	rec := []string{"-load", "self", "-load-duration", "150ms", "-load-concurrency", "2",
		"-seed", "7", "-trace-record", trace}
	if err := run(rec, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("record: %v\nstderr: %s", err, stderr.String())
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var lines int
	for _, l := range strings.Split(string(raw), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			lines++
		}
	}
	if lines == 0 {
		t.Fatal("trace recorded no queries")
	}

	stdout.Reset()
	replay := []string{"-load", "self", "-load-concurrency", "2", "-seed", "7", "-trace", trace}
	if err := run(replay, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("replay: %v\nstderr: %s", err, stderr.String())
	}
	// Replay issues each recorded query exactly once.
	wantWarm := "warm " + strconv.Itoa(lines) + " requests (0 errors)"
	if !strings.Contains(stdout.String(), wantWarm) {
		t.Errorf("replay stdout missing %q:\n%s", wantWarm, stdout.String())
	}
}

// TestLoadFlagConflicts exercises the flag-validation surface of -load.
func TestLoadFlagConflicts(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-load", "self", "-serve", ":0"},                              // two run modes
		{"-load", "self", "-batch", "q.txt"},                           // load is not a batch
		{"-load", "ftp://x"},                                           // target must be self or http(s)
		{"-load", "self", "-load-duration", "0s"},                      // duration must be positive
		{"-load", "self", "-load-concurrency", "0"},                    // at least one worker
		{"-load", "self", "-zipf-s", "1.0"},                            // zipf needs s > 1
		{"-load", "self", "-bench-out", "x.json"},                      // bench-out needs a tag
		{"-load", "self", "-trace", "a", "-trace-record", "b"},         // replay xor record
		{"-load-duration", "1s"},                                       // load flags need -load
		{"-load", "self", "-bench-merge", "x.json", "-bench-tag", "t"}, // merge needs bench-out
	} {
		if err := run(args, strings.NewReader(""), &out, &errOut); err == nil {
			t.Errorf("args %v accepted, want a flag-conflict error", args)
		}
	}
}

// TestPhaseSpansExactQuantiles pins the -load phase breakdown to exact
// quantiles of the raw span durations: phases of 2 µs and 60 µs must
// report their own p50s, not one interpolated value from a shared
// latency bucket, and unmarked traces must not contribute.
func TestPhaseSpansExactQuantiles(t *testing.T) {
	tk := newTraceTracker(1, "warm")
	var marked []string
	for len(marked) < 3 {
		if tp := tk.mark(); tp != "" {
			marked = append(marked, strings.Split(tp, "-")[1])
		}
	}
	// Per trace: cache 1/2/3 µs and solve 50/60/70 µs, all inside the
	// first DefLatencyBounds bucket; the unmarked trace's 5 ms spans
	// would drag every quantile up if they leaked in.
	cacheMS := []float64{0.003, 0.001, 0.002, 5}
	solveMS := []float64{0.070, 0.050, 0.060, 5}
	var resp httpd.TracesResponse
	for i, tid := range append(marked, "ffffffffffffffffffffffffffffffff") {
		resp.Traces = append(resp.Traces, &trace.Recorded{TraceID: tid, Spans: []trace.RecordedSpan{
			{Name: "cache", DurationMS: cacheMS[i]},
			{Name: "solve", DurationMS: solveMS[i]},
		}})
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer srv.Close()

	d := &loadDriver{base: srv.URL, client: srv.Client()}
	phases, found := d.phaseSpans(context.Background(), tk)
	if found != len(marked) {
		t.Fatalf("found %d marked traces, want %d", found, len(marked))
	}
	want := map[string]phaseQuantiles{
		"cache": {Count: 3, P50ms: 0.002, P95ms: 0.003, P99ms: 0.003},
		"solve": {Count: 3, P50ms: 0.060, P95ms: 0.070, P99ms: 0.070},
	}
	for name, w := range want {
		if got := phases[name]; got != w {
			t.Errorf("phase %s = %+v, want %+v", name, got, w)
		}
	}
	if phases["cache"].P50ms == phases["solve"].P50ms {
		t.Errorf("2 µs and 60 µs phases report the same p50 %v", phases["cache"].P50ms)
	}

	// Nearest rank over 1..100 is the identity on the percentile.
	ms := make([]float64, 100)
	for i := range ms {
		ms[100-1-i] = float64(i + 1) // unsorted on purpose
	}
	if got := quantilesMS(ms); got != (phaseQuantiles{Count: 100, P50ms: 50, P95ms: 95, P99ms: 99}) {
		t.Errorf("quantilesMS(1..100) = %+v", got)
	}
}
