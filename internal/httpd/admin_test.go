package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/snapshot"
)

// adminServer boots a handler over a registry holding the Figure 3(c)
// library scheme.
func adminServer(t *testing.T, opts ...HandlerOption) (*httptest.Server, *core.Registry) {
	t.Helper()
	reg := core.NewRegistry()
	reg.Set("library", fixtures.Fig3c())
	ts := httptest.NewServer(New(reg, opts...))
	t.Cleanup(ts.Close)
	return ts, reg
}

func adminDo(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSnapshotDownloadUploadCycle proves the admin trio end to end: the
// downloaded epoch is a decodable snapshot, uploading it under a new name
// installs a scheme whose answers are bit-for-bit the original's, and
// deleting it returns the catalog to its prior state.
func TestSnapshotDownloadUploadCycle(t *testing.T) {
	ts, reg := adminServer(t)

	resp, snapBytes := adminDo(t, http.MethodGet, ts.URL+"/v1/schemes/library/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download: status %d: %s", resp.StatusCode, snapBytes)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("download content type %q", ct)
	}
	if resp.Header.Get("X-Scheme-Epoch") != "1" {
		t.Fatalf("download epoch header %q", resp.Header.Get("X-Scheme-Epoch"))
	}
	snap, err := snapshot.Decode(snapBytes)
	if err != nil {
		t.Fatalf("downloaded bytes do not decode: %v", err)
	}
	orig, _ := reg.Get("library")
	if snap.Class != orig.Connector().Class() {
		t.Fatalf("downloaded class diverges")
	}

	resp, body := adminDo(t, http.MethodPut, ts.URL+"/v1/schemes/restored", snapBytes)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var up UploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if up.Scheme != "restored" || up.Epoch != 1 || up.Source != "snapshot-v1" {
		t.Fatalf("upload response %+v", up)
	}

	// The revived scheme must answer exactly like the original over the
	// wire, and must advertise its snapshot provenance in /v1/schemes.
	for _, labels := range [][]string{{"A", "C"}, {"B", "3"}, {"1", "2", "3"}} {
		q := func(scheme string) string {
			req, _ := json.Marshal(ConnectRequest{Scheme: scheme, Labels: labels})
			resp, body := adminDo(t, http.MethodPost, ts.URL+"/v1/connect", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("connect %s %v: %d %s", scheme, labels, resp.StatusCode, body)
			}
			// The scheme name differs by construction; compare the answer.
			var cr ConnectResponse
			if err := json.Unmarshal(body, &cr); err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(cr.Answer)
			return string(b)
		}
		if a, b := q("library"), q("restored"); a != b {
			t.Fatalf("answers diverge for %v:\n  live: %s\n  snap: %s", labels, a, b)
		}
	}
	resp, body = adminDo(t, http.MethodGet, ts.URL+"/v1/schemes", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("schemes listing failed")
	}
	var schemes SchemesResponse
	if err := json.Unmarshal(body, &schemes); err != nil {
		t.Fatal(err)
	}
	bySource := map[string]string{}
	for _, s := range schemes.Schemes {
		bySource[s.Name] = s.Source
	}
	if bySource["library"] != "" || bySource["restored"] != "snapshot-v1" {
		t.Fatalf("source attribution wrong: %v", bySource)
	}

	resp, body = adminDo(t, http.MethodDelete, ts.URL+"/v1/schemes/restored", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	var del DeleteResponse
	if err := json.Unmarshal(body, &del); err != nil {
		t.Fatal(err)
	}
	if del.Scheme != "restored" || !del.Dropped {
		t.Fatalf("delete response %+v", del)
	}
	if _, ok := reg.Get("restored"); ok {
		t.Fatalf("scheme still registered after DELETE")
	}
}

// TestWarmSnapshotUploadBootsHot: downloading a snapshot with ?warmup=1
// captures the live cache, and a scheme revived from it answers its first
// query out of the restored cache — a hit, bit-for-bit the original
// answer, with the restore visible as warm_fills in /v1/stats.
func TestWarmSnapshotUploadBootsHot(t *testing.T) {
	ts, _ := adminServer(t)

	// Populate the live cache, then capture it.
	queries := [][]string{{"A", "C"}, {"B", "3"}, {"1", "2", "3"}}
	answers := make([]string, len(queries))
	for i, labels := range queries {
		req, _ := json.Marshal(ConnectRequest{Scheme: "library", Labels: labels})
		resp, body := adminDo(t, http.MethodPost, ts.URL+"/v1/connect", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("connect %v: %d %s", labels, resp.StatusCode, body)
		}
		var cr ConnectResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(cr.Answer)
		answers[i] = string(b)
	}
	resp, snapBytes := adminDo(t, http.MethodGet, ts.URL+"/v1/schemes/library/snapshot?warmup=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm download: status %d: %s", resp.StatusCode, snapBytes)
	}
	snap, err := snapshot.Decode(snapBytes)
	if err != nil {
		t.Fatalf("warm snapshot does not decode: %v", err)
	}
	if len(snap.Warmup) != len(queries) {
		t.Fatalf("warm snapshot carries %d entries, want %d", len(snap.Warmup), len(queries))
	}

	resp, body := adminDo(t, http.MethodPut, ts.URL+"/v1/schemes/warmed", snapBytes)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm upload: status %d: %s", resp.StatusCode, body)
	}

	stats := func() SchemeStats {
		resp, body := adminDo(t, http.MethodGet, ts.URL+"/v1/stats", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats: %d %s", resp.StatusCode, body)
		}
		var sr StatsResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr.Schemes["warmed"]
	}
	if st := stats(); st.WarmFills != uint64(len(queries)) || st.Entries != len(queries) {
		t.Fatalf("before any query: stats = %+v, want %d warm fills resident", st, len(queries))
	}

	// Every original query answers from the restored cache, bit-for-bit.
	for i, labels := range queries {
		req, _ := json.Marshal(ConnectRequest{Scheme: "warmed", Labels: labels})
		resp, body := adminDo(t, http.MethodPost, ts.URL+"/v1/connect", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmed connect %v: %d %s", labels, resp.StatusCode, body)
		}
		var cr ConnectResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if b, _ := json.Marshal(cr.Answer); string(b) != answers[i] {
			t.Fatalf("warmed answer diverges for %v:\n  live: %s\n  warm: %s", labels, answers[i], b)
		}
	}
	st := stats()
	if st.Misses != 0 || st.Hits != uint64(len(queries)) {
		t.Fatalf("after replay: stats = %+v, want %d hits / 0 misses", st, len(queries))
	}
	if got, want := uint64(st.Entries), st.Misses+st.WarmFills-st.Evictions-st.Removals; got != want {
		t.Fatalf("warm algebra: entries = %d, misses+warm_fills-evictions-removals = %d", got, want)
	}
	if st.CostResident != st.CostAdded-st.CostEvicted-st.CostRemoved {
		t.Fatalf("warm cost ledger out of balance: %+v", st)
	}
}

// TestUploadTextScheme compiles a textual scheme body live.
func TestUploadTextScheme(t *testing.T) {
	ts, reg := adminServer(t)
	text := "v1 x\nv1 y\nv2 r\nedge x r\nedge y r\n"
	resp, body := adminDo(t, http.MethodPut, ts.URL+"/v1/schemes/tiny", []byte(text))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var up UploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if up.Source != core.SourceCompiled || up.Epoch != 1 {
		t.Fatalf("upload response %+v", up)
	}
	svc, ok := reg.Get("tiny")
	if !ok || svc.Connector().Frozen().N() != 3 {
		t.Fatalf("uploaded scheme not installed correctly")
	}

	// Replacing bumps the epoch atomically.
	resp, body = adminDo(t, http.MethodPut, ts.URL+"/v1/schemes/tiny", []byte(text))
	if resp.StatusCode != http.StatusOK {
		t.Fatal("re-upload failed")
	}
	_ = json.Unmarshal(body, &up)
	if up.Epoch != 2 {
		t.Fatalf("re-upload epoch %d, want 2: %s", up.Epoch, body)
	}
}

// TestUploadRespectsSchemeOptions: WithSchemeOptions budgets apply to
// uploaded schemes exactly like boot-time ones.
func TestUploadRespectsSchemeOptions(t *testing.T) {
	ts, _ := adminServer(t, WithSchemeOptions(core.WithMaxTerminals(2)))
	text := "v1 x\nv1 y\nv1 z\nv2 r\nedge x r\nedge y r\nedge z r\n"
	if resp, body := adminDo(t, http.MethodPut, ts.URL+"/v1/schemes/tiny", []byte(text)); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	req, _ := json.Marshal(ConnectRequest{Scheme: "tiny", Terminals: []int{0, 1, 2}})
	resp, body := adminDo(t, http.MethodPost, ts.URL+"/v1/connect", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("3-terminal query against WithMaxTerminals(2) scheme: %d %s", resp.StatusCode, body)
	}
}

func TestAdminErrors(t *testing.T) {
	ts, reg := adminServer(t, WithMaxSnapshotBytes(512))

	valid := func() []byte {
		var buf bytes.Buffer
		if err := reg.SaveSnapshot("library", &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := []struct {
		name, method, path string
		body               []byte
		status             int
		code               string
	}{
		{"download-unknown", http.MethodGet, "/v1/schemes/ghost/snapshot", nil, 404, CodeUnknownScheme},
		{"delete-unknown", http.MethodDelete, "/v1/schemes/ghost", nil, 404, CodeUnknownScheme},
		{"put-empty", http.MethodPut, "/v1/schemes/x", []byte{}, 400, CodeBadRequest},
		{"put-bad-text", http.MethodPut, "/v1/schemes/x", []byte("edge a b\n"), 422, CodeBadScheme},
		{"put-truncated-snapshot", http.MethodPut, "/v1/schemes/x", valid[:len(valid)-3], 422, CodeBadSnapshot},
		{"put-corrupt-snapshot", http.MethodPut, "/v1/schemes/x", func() []byte {
			d := append([]byte(nil), valid...)
			d[len(d)-1] ^= 0xFF
			return d
		}(), 422, CodeBadSnapshot},
		{"put-oversized", http.MethodPut, "/v1/schemes/x", bytes.Repeat([]byte("v1 aaaaaa\n"), 200), 413, CodeBodyTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := adminDo(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if eb.Code != tc.code {
				t.Fatalf("code %q, want %q (%s)", eb.Code, tc.code, body)
			}
		})
	}

	// A failed upload must not disturb the existing catalog entry.
	if _, ok := reg.Get("x"); ok {
		t.Fatalf("a rejected upload registered a scheme")
	}
	if names := reg.Names(); !(len(names) == 1 && names[0] == "library") {
		t.Fatalf("catalog disturbed: %v", names)
	}
}

// TestDeleteDuringQueries: in-flight queries on a dropped scheme finish
// cleanly on their epoch while new lookups 404.
func TestDeleteDuringQueries(t *testing.T) {
	ts, reg := adminServer(t)
	svc, _ := reg.Get("library")

	done := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func(i int) {
			req, _ := json.Marshal(ConnectRequest{Scheme: "library", Labels: []string{"A", "C"}, CacheBypass: i%2 == 0})
			resp, body := adminDo2(ts.URL+"/v1/connect", req)
			if resp == nil {
				done <- fmt.Errorf("request error")
				return
			}
			// Either the query resolved the scheme before the drop (200) or
			// after (404); both are clean outcomes, anything else is not.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				done <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			done <- nil
		}(i)
	}
	resp, body := adminDo(t, http.MethodDelete, ts.URL+"/v1/schemes/library", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	for i := 0; i < 32; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// The old epoch object itself keeps answering for holders.
	if _, err := svc.Connect(t.Context(), []int{0, 2}); err != nil {
		t.Fatalf("held Service died after Drop: %v", err)
	}
}

// adminDo2 is adminDo without the testing.T (for goroutines).
func adminDo2(url string, body []byte) (*http.Response, string) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, ""
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, ""
	}
	defer resp.Body.Close()
	var sb strings.Builder
	_, _ = io.Copy(&sb, resp.Body)
	return resp, sb.String()
}
