package httpd

import (
	"bytes"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/reference"
)

// TestUploadLargeSchemeInstallsWithinBudget uploads a 3,830-node sparse
// γ-acyclic scheme — 89 KB of graphio text — through
// PUT /v1/schemes/{name}. The live compile must install it within 2 s
// (recognizers with cubic scans took about 19 s on it), give it the class
// its construction and the reference oracles fix, and count in the
// compiled install-duration histogram. The time bound is skipped under
// -race.
func TestUploadLargeSchemeInstallsWithinBudget(t *testing.T) {
	h1 := gen.GammaAcyclic(rand.New(rand.NewSource(7)), 1280, 3, 3)
	b := bipartite.FromHypergraph(h1).B
	var text bytes.Buffer
	if err := graphio.WriteBipartite(&text, b); err != nil {
		t.Fatal(err)
	}
	if b.N() != 3830 || text.Len() < 80<<10 {
		t.Fatalf("input drift: %d nodes, %d bytes of text", b.N(), text.Len())
	}
	reg := core.NewRegistry()
	h := New(reg)

	start := time.Now()
	w := do(t, h, http.MethodPut, "/v1/schemes/gamma", text.String())
	took := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", w.Code, w.Body.String())
	}
	t.Logf("installed %d nodes from %d bytes in %v", b.N(), text.Len(), took)
	if !raceEnabled && took > 2*time.Second {
		t.Fatalf("upload took %v, budget 2s", took)
	}

	// gen.GammaAcyclic builds H¹ γ-acyclic, so every class but (4,1) holds
	// on both sides (γ ⇒ β ⇒ α, and γ-acyclicity is self-dual); (4,1) fails
	// on the Berge 2-cycles its overlaps of two nodes make. The oracles
	// confirm the parts they can afford at this size.
	want := chordality.Class{
		Chordal41: false, Chordal62: true, Chordal61: true,
		V1Chordal: true, V1Conformal: true, V2Chordal: true, V2Conformal: true,
	}
	if h1.FindBergeCycle() == nil || reference.GammaTriangleScan(h1) != nil {
		t.Fatal("input drift: the scheme is not the γ-acyclic, Berge-cyclic one the verdicts describe")
	}
	svc, ok := reg.Get("gamma")
	if !ok {
		t.Fatal("uploaded scheme not installed")
	}
	if got := svc.Connector().Class(); got != want {
		t.Fatalf("class %+v, want %+v", got, want)
	}
	if got := scrape(t, h)[series(MetricInstallDuration+"_count", "source", "compiled")]; got != 1 {
		t.Fatalf("%s{source=compiled} count = %g, want 1", MetricInstallDuration, got)
	}
}
