package httpd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
)

// fig3c is the paper's Figure 3(c) scheme plus the single chord: labels
// A,B,C on V1, relations 1,2,3 on V2.
func fig3c() *bipartite.Graph {
	b := bipartite.New()
	a := b.AddV1("A")
	bb := b.AddV1("B")
	c := b.AddV1("C")
	r1 := b.AddV2("1")
	r2 := b.AddV2("2")
	r3 := b.AddV2("3")
	for _, e := range [][2]int{{a, r1}, {bb, r1}, {bb, r2}, {c, r2}, {c, r3}, {a, r3}, {c, r1}} {
		b.AddEdge(e[0], e[1])
	}
	return b
}

// payroll is a small tree scheme: ename—works—floor.
func payroll() *bipartite.Graph {
	b := bipartite.New()
	e := b.AddV1("ename")
	f := b.AddV1("floor")
	w := b.AddV2("works")
	b.AddEdge(e, w)
	b.AddEdge(f, w)
	return b
}

func testRegistry() *core.Registry {
	reg := core.NewRegistry()
	reg.Set("lib", fig3c())
	reg.Set("payroll", payroll())
	return reg
}

// do posts body (or GETs when body is empty) and returns the recorder.
func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// decodeError fails the test unless the response carries status with the
// given wire code.
func decodeError(t *testing.T, w *httptest.ResponseRecorder, status int, code string) {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status = %d, want %d (body %s)", w.Code, status, w.Body.String())
	}
	var eb ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if eb.Code != code || eb.Status != status {
		t.Fatalf("error = %+v, want code %q status %d", eb, code, status)
	}
}

func TestConnectByLabels(t *testing.T) {
	reg := testRegistry()
	h := New(reg)
	w := do(t, h, "POST", "/v1/connect", `{"scheme":"lib","labels":["A","C"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var resp ConnectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scheme != "lib" || resp.Epoch != 1 {
		t.Fatalf("scheme/epoch = %q/%d", resp.Scheme, resp.Epoch)
	}
	// The wire answer must be the in-process answer, bit for bit.
	svc, _ := reg.Get("lib")
	g := svc.Connector().Frozen().G()
	a, _ := g.ID("A")
	c, _ := g.ID("C")
	conn, err := svc.Connect(context.Background(), []int{a, c})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Method != conn.Method.String() {
		t.Fatalf("method = %q, want %q", resp.Method, conn.Method)
	}
	if len(resp.Nodes) != conn.Tree.Nodes.Len() {
		t.Fatalf("nodes = %v, want %v", resp.Nodes, conn.Tree.Nodes)
	}
	for i, v := range conn.Tree.Nodes {
		if resp.Nodes[i] != v {
			t.Fatalf("nodes = %v, want %v", resp.Nodes, conn.Tree.Nodes)
		}
	}
	if len(resp.Edges) != len(conn.Tree.Edges) {
		t.Fatalf("edges = %v, want %v", resp.Edges, conn.Tree.Edges)
	}
	if len(resp.Labels) != len(resp.Nodes) {
		t.Fatalf("labels/nodes length mismatch: %v vs %v", resp.Labels, resp.Nodes)
	}
}

func TestConnectDefaultsToSoleScheme(t *testing.T) {
	reg := core.NewRegistry()
	reg.Set("only", payroll())
	h := New(reg)
	w := do(t, h, "POST", "/v1/connect", `{"labels":["ename","floor"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp ConnectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scheme != "only" {
		t.Fatalf("scheme = %q, want %q", resp.Scheme, "only")
	}
}

func TestErrorTaxonomyMapping(t *testing.T) {
	reg := testRegistry()
	reg.Set("tiny", payroll(), core.WithMaxTerminals(1))
	h := New(reg)
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"unknown scheme", `{"scheme":"nope","terminals":[0]}`, 404, CodeUnknownScheme},
		{"no scheme, several registered", `{"terminals":[0]}`, 404, CodeUnknownScheme},
		{"empty query", `{"scheme":"lib","terminals":[]}`, 422, CodeEmptyQuery},
		{"out of range", `{"scheme":"lib","terminals":[99]}`, 422, CodeInvalidTerm},
		{"duplicate", `{"scheme":"lib","terminals":[0,0]}`, 422, CodeInvalidTerm},
		{"over budget sheds", `{"scheme":"tiny","terminals":[0,1]}`, 429, CodeTooManyTerms},
		{"unknown label", `{"scheme":"lib","labels":["zzz"]}`, 422, CodeUnknownLabel},
		{"labels and terminals", `{"scheme":"lib","terminals":[0],"labels":["A"]}`, 400, CodeBadRequest},
		{"bad method", `{"scheme":"lib","terminals":[0],"method":"magic"}`, 400, CodeBadRequest},
		{"negative exact limit", `{"scheme":"lib","terminals":[0],"exact_limit":-1}`, 400, CodeBadRequest},
		{"negative timeout", `{"scheme":"lib","terminals":[0],"timeout_ms":-5}`, 400, CodeBadRequest},
		{"negative interp", `{"scheme":"lib","terminals":[0],"interpretations":{"max_aux":-1,"limit":1}}`, 400, CodeBadRequest},
		{"not json", `{"scheme":`, 400, CodeBadRequest},
		{"unknown field", `{"scheme":"lib","terminals":[0],"bogus":1}`, 400, CodeBadRequest},
		{"trailing data", `{"scheme":"lib","terminals":[0]} garbage`, 400, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			decodeError(t, do(t, h, "POST", "/v1/connect", tc.body), tc.status, tc.code)
		})
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	// A 1ns server-side cap expires every request context before the
	// solver starts; the typed context error must surface as 504.
	h := New(testRegistry(), WithMaxTimeout(time.Nanosecond))
	w := do(t, h, "POST", "/v1/connect", `{"scheme":"lib","labels":["A","C"]}`)
	decodeError(t, w, http.StatusGatewayTimeout, CodeDeadline)
}

func TestInFlightLimiterSheds(t *testing.T) {
	h := New(testRegistry(), WithMaxInFlight(1))
	h.sem <- struct{}{} // occupy the only slot
	w := do(t, h, "POST", "/v1/connect", `{"scheme":"lib","terminals":[0]}`)
	// Retry-After derives from the observed p50 solve latency; with no
	// traffic observed yet it must fall back to the 1-second floor.
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Errorf("idle Retry-After = %q, want \"1\"", got)
	}
	decodeError(t, w, http.StatusTooManyRequests, CodeOverloaded)
	// Monitoring GETs are exempt: they must answer during overload.
	if w := do(t, h, "GET", "/v1/schemes", ""); w.Code != http.StatusOK {
		t.Fatalf("GET /v1/schemes during overload: status = %d", w.Code)
	}
	if w := do(t, h, "GET", "/v1/stats", ""); w.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats during overload: status = %d", w.Code)
	}
	if w := do(t, h, "GET", "/metrics", ""); w.Code != http.StatusOK {
		t.Fatalf("GET /metrics during overload: status = %d", w.Code)
	}
	<-h.sem
	if w := do(t, h, "POST", "/v1/connect", `{"scheme":"lib","terminals":[0]}`); w.Code != http.StatusOK {
		t.Fatalf("after release: status = %d", w.Code)
	}
}

// TestRetryAfterTracksServiceTime pins the derivation rule: the header is
// the observed p50 solve latency rounded up to whole seconds, floored at
// one. Observations are injected straight into the handler's histogram —
// the test pins the derivation, not the solver's speed.
func TestRetryAfterTracksServiceTime(t *testing.T) {
	h := New(testRegistry(), WithMaxInFlight(1))
	for i := 0; i < 100; i++ {
		h.solveDur.Observe(2.2)
	}
	h.sem <- struct{}{}
	w := do(t, h, "POST", "/v1/connect", `{"scheme":"lib","terminals":[0]}`)
	decodeError(t, w, http.StatusTooManyRequests, CodeOverloaded)
	got := w.Header().Get("Retry-After")
	secs, err := strconv.Atoi(got)
	if err != nil {
		t.Fatalf("Retry-After = %q, want integer seconds", got)
	}
	// p50 lands in the histogram bucket containing 2.2s; ceil of any
	// point in that bucket is 2..4 depending on interpolation, and must
	// certainly exceed the idle floor of 1.
	if secs < 2 || secs > 4 {
		t.Fatalf("Retry-After = %d, want ceil(p50≈2.2s) in [2,4]", secs)
	}
	// Sub-second service times stay floored at 1 second.
	h2 := New(testRegistry(), WithMaxInFlight(1))
	for i := 0; i < 100; i++ {
		h2.solveDur.Observe(0.003)
	}
	h2.sem <- struct{}{}
	w = do(t, h2, "POST", "/v1/connect", `{"scheme":"lib","terminals":[0]}`)
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("fast-path Retry-After = %q, want \"1\" (floor)", got)
	}
}

func TestBodyTooLarge(t *testing.T) {
	h := New(testRegistry(), WithMaxBodyBytes(32))
	body := `{"scheme":"lib","terminals":[` + strings.Repeat("0,", 100) + `0]}`
	w := do(t, h, "POST", "/v1/connect", body)
	decodeError(t, w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)
}

func TestBatchMixedResults(t *testing.T) {
	reg := testRegistry()
	h := New(reg)
	w := do(t, h, "POST", "/v1/batch", `{"scheme":"lib","queries":[[0,2],[99],[0,2]]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 || resp.Failed != 1 {
		t.Fatalf("results = %d, failed = %d; body %s", len(resp.Results), resp.Failed, w.Body.String())
	}
	if resp.Results[0].Answer == nil || resp.Results[2].Answer == nil {
		t.Fatal("valid queries should carry answers")
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != CodeInvalidTerm {
		t.Fatalf("invalid query error = %+v", resp.Results[1].Error)
	}
	// Identical queries in one batch must produce identical answers.
	if a, b := resp.Results[0].Answer, resp.Results[2].Answer; len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("duplicate queries disagree: %v vs %v", a.Nodes, b.Nodes)
	}
}

func TestInterpretationsEndpoint(t *testing.T) {
	reg := testRegistry()
	h := New(reg)
	w := do(t, h, "POST", "/v1/interpretations", `{"scheme":"lib","labels":["A","C"],"max_aux":2,"limit":4}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp InterpretationsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Interpretations) == 0 {
		t.Fatal("expected at least one interpretation")
	}
	// Parity with the in-process enumeration, including the ranking.
	svc, _ := reg.Get("lib")
	g := svc.Connector().Frozen().G()
	a, _ := g.ID("A")
	c, _ := g.ID("C")
	want, err := svc.Connector().Interpretations(context.Background(), []int{a, c}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Interpretations) != len(want) {
		t.Fatalf("got %d interpretations, want %d", len(resp.Interpretations), len(want))
	}
	for i := range want {
		got := resp.Interpretations[i]
		if len(got.Nodes) != want[i].Nodes.Len() || len(got.Auxiliary) != want[i].Auxiliary.Len() {
			t.Fatalf("interpretation %d: got %+v, want %+v", i, got, want[i])
		}
	}
}

func TestSchemesAndStats(t *testing.T) {
	reg := testRegistry()
	h := New(reg)
	w := do(t, h, "GET", "/v1/schemes", "")
	if w.Code != http.StatusOK {
		t.Fatalf("schemes status = %d", w.Code)
	}
	var schemes SchemesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &schemes); err != nil {
		t.Fatal(err)
	}
	if len(schemes.Schemes) != 2 || schemes.Schemes[0].Name != "lib" || schemes.Schemes[1].Name != "payroll" {
		t.Fatalf("schemes = %+v", schemes.Schemes)
	}
	if schemes.Schemes[1].Arcs != 2 || schemes.Schemes[1].V1Nodes != 2 || schemes.Schemes[1].V2Nodes != 1 {
		t.Fatalf("payroll info = %+v", schemes.Schemes[1])
	}

	// Two identical queries: one miss, one hit, visible in /v1/stats.
	for i := 0; i < 2; i++ {
		if w := do(t, h, "POST", "/v1/connect", `{"scheme":"payroll","labels":["ename","floor"]}`); w.Code != 200 {
			t.Fatalf("connect status = %d", w.Code)
		}
	}
	w = do(t, h, "GET", "/v1/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("stats status = %d", w.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	st, ok := stats.Schemes["payroll"]
	if !ok {
		t.Fatalf("stats = %+v", stats.Schemes)
	}
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("payroll stats = %+v, want 1 miss / 1 hit / 1 entry", st)
	}
	// Sharded-cache geometry travels the wire: a power-of-two shard
	// count, effective capacity ≥ the default, and per-shard occupancy
	// that sums to the entry count.
	if st.Shards < 1 || st.Shards&(st.Shards-1) != 0 {
		t.Fatalf("wire shards = %d, want a power of two", st.Shards)
	}
	if st.Capacity < core.DefaultCacheSize {
		t.Fatalf("wire capacity = %d, want ≥ default %d", st.Capacity, core.DefaultCacheSize)
	}
	if len(st.ShardEntries) != st.Shards {
		t.Fatalf("shard_entries has %d slots for %d shards", len(st.ShardEntries), st.Shards)
	}
	sum := 0
	for _, n := range st.ShardEntries {
		sum += n
	}
	if sum != st.Entries {
		t.Fatalf("shard_entries sums to %d, entries = %d", sum, st.Entries)
	}
	// Counter reconciliation on the wire: entry count and the recompute-
	// cost ledger both balance. A live compile has no warm fills, the one
	// miss banked a nonzero solve cost, and the one hit saved it again.
	if got, want := uint64(st.Entries), st.Misses+st.WarmFills-st.Evictions-st.Removals; got != want {
		t.Fatalf("entries = %d, misses+warm_fills-evictions-removals = %d", got, want)
	}
	if st.WarmFills != 0 {
		t.Fatalf("warm_fills = %d on a live-compiled scheme, want 0", st.WarmFills)
	}
	if st.CostAdded == 0 {
		t.Fatalf("cost_added_nanos = 0 after a miss, want > 0")
	}
	if st.CostResident != st.CostAdded-st.CostEvicted-st.CostRemoved {
		t.Fatalf("cost ledger out of balance: %+v", st)
	}
	if st.CostSaved == 0 {
		t.Fatalf("cost_saved_nanos = 0 after a hit, want > 0")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := New(testRegistry())
	if w := do(t, h, "GET", "/v1/connect", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/connect status = %d", w.Code)
	}
	if w := do(t, h, "POST", "/v1/schemes", `{}`); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/schemes status = %d", w.Code)
	}
	if w := do(t, h, "GET", "/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("GET /nope status = %d", w.Code)
	}
}
