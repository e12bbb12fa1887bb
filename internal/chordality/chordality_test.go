package chordality

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/reference"
)

func completeGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func cycleGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func TestIsChordalBasics(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"K5", completeGraph(5), true},
		{"C3", cycleGraph(3), true},
		{"C4", cycleGraph(4), false},
		{"C6", cycleGraph(6), false},
		{"empty", graph.New(), true},
		{"single", graph.NewWithNodes("a"), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsChordal(tc.g); got != tc.want {
				t.Errorf("IsChordal = %v, want %v", got, tc.want)
			}
		})
	}
	// C4 plus a chord becomes chordal.
	g := cycleGraph(4)
	g.AddEdge(0, 2)
	if !IsChordal(g) {
		t.Error("C4+chord should be chordal")
	}
}

func TestIsChordalAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for iter := 0; iter < 400; iter++ {
		g := randomGraph(r, 3+r.Intn(7), r.Float64())
		if got, want := IsChordal(g), reference.IsChordalGraph(g); got != want {
			t.Fatalf("chordal mismatch on %v: fast=%v ref=%v", g, got, want)
		}
	}
}

func TestPEOIsValid(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for iter := 0; iter < 200; iter++ {
		g := randomGraph(r, 3+r.Intn(7), r.Float64())
		peo, ok := PerfectEliminationOrderFrozen(g.Freeze())
		if !ok {
			continue
		}
		pos := make([]int, g.N())
		for i, v := range peo {
			pos[v] = i
		}
		for _, v := range peo {
			var later []int
			for _, u := range g.Neighbors(v) {
				if pos[u] > pos[v] {
					later = append(later, u)
				}
			}
			for i := 0; i < len(later); i++ {
				for j := i + 1; j < len(later); j++ {
					if !g.HasEdge(later[i], later[j]) {
						t.Fatalf("PEO invalid on %v: later nbrs of %d not a clique", g, v)
					}
				}
			}
		}
	}
}

func randomGraph(r *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// randomBipartite builds a random bipartite graph with n1 + n2 nodes.
func randomBipartite(r *rand.Rand, n1, n2 int, p float64) *bipartite.Graph {
	b := bipartite.New()
	var v1, v2 []int
	for i := 0; i < n1; i++ {
		v1 = append(v1, b.AddV1(string(rune('a'+i))))
	}
	for i := 0; i < n2; i++ {
		v2 = append(v2, b.AddV2(string(rune('t'+i))))
	}
	for _, u := range v1 {
		for _, w := range v2 {
			if r.Float64() < p {
				b.AddEdge(u, w)
			}
		}
	}
	return b
}

// bipartiteCycle returns the chordless cycle with n1 nodes per side.
func bipartiteCycle(k int) *bipartite.Graph {
	b := bipartite.New()
	var ids []int
	for i := 0; i < k; i++ {
		ids = append(ids, b.AddV1(string(rune('a'+i))))
		ids = append(ids, b.AddV2(string(rune('p'+i))))
	}
	for i := 0; i < 2*k; i++ {
		b.AddEdge(ids[i], ids[(i+1)%(2*k)])
	}
	return b
}

// fig3a is a tree: (4,1)-chordal, Berge-acyclic side (paper Fig 3a/4a).
func fig3a() *bipartite.Graph {
	b := bipartite.New()
	a := b.AddV1("A")
	c := b.AddV1("C")
	bb := b.AddV1("B")
	e := b.AddV1("E")
	d := b.AddV1("D")
	f := b.AddV1("F")
	w1 := b.AddV2("1")
	w2 := b.AddV2("2")
	w3 := b.AddV2("3")
	b.AddEdge(a, w1)
	b.AddEdge(c, w1)
	b.AddEdge(bb, w2)
	b.AddEdge(e, w2)
	b.AddEdge(c, w2)
	b.AddEdge(c, w3)
	b.AddEdge(f, w3)
	b.AddEdge(d, w2)
	return b
}

// fig3b is a 6-cycle with two chords: (6,2)-chordal but cyclic
// (paper Fig 3b/4b, γ-acyclic hypergraph side).
func fig3b() *bipartite.Graph {
	b := bipartiteCycle(3)
	// Cycle a-p-b-q-c-r; add chords p-c and q-a (V2-V1 arcs): every 6-cycle
	// then has ≥ 2 chords.
	b.AddEdgeLabels("p", "c")
	b.AddEdgeLabels("q", "a")
	return b
}

// fig3c is a 6-cycle with exactly one chord: (6,1)- but not (6,2)-chordal
// (paper Fig 3c/4c, β-acyclic hypergraph side).
func fig3c() *bipartite.Graph {
	b := bipartiteCycle(3)
	b.AddEdgeLabels("p", "c")
	return b
}

// fig5 is the paper's Fig 5 (reconstructed): V1-chordal, V1-conformal and
// V2-chordal, V2-conformal but not (6,1)-chordal. V1 = {v1,v2,v3,vs},
// V2 = {w1,w2,w3,ws}; a chordless 6-cycle v1-w1-v2-w2-v3-w3 plus hubs ws
// (adjacent to v1,v2,v3) and vs (adjacent to w1,w2,w3,ws).
func fig5() *bipartite.Graph {
	b := bipartite.New()
	v1 := b.AddV1("v1")
	v2 := b.AddV1("v2")
	v3 := b.AddV1("v3")
	vs := b.AddV1("vs")
	w1 := b.AddV2("w1")
	w2 := b.AddV2("w2")
	w3 := b.AddV2("w3")
	ws := b.AddV2("ws")
	b.AddEdge(v1, w1)
	b.AddEdge(v2, w1)
	b.AddEdge(v2, w2)
	b.AddEdge(v3, w2)
	b.AddEdge(v3, w3)
	b.AddEdge(v1, w3)
	b.AddEdge(v1, ws)
	b.AddEdge(v2, ws)
	b.AddEdge(v3, ws)
	b.AddEdge(vs, w1)
	b.AddEdge(vs, w2)
	b.AddEdge(vs, w3)
	b.AddEdge(vs, ws)
	return b
}

func TestFig3Ladder(t *testing.T) {
	a, bb, c := fig3a(), fig3b(), fig3c()
	if !Is41Chordal(a) || !Is62Chordal(a) || !Is61Chordal(a) {
		t.Error("fig3a should satisfy all chordality levels")
	}
	if Is41Chordal(bb) {
		t.Error("fig3b is cyclic, not (4,1)-chordal")
	}
	if !Is62Chordal(bb) || !Is61Chordal(bb) {
		t.Error("fig3b should be (6,2)- and (6,1)-chordal")
	}
	if Is62Chordal(c) {
		t.Error("fig3c should not be (6,2)-chordal")
	}
	if !Is61Chordal(c) {
		t.Error("fig3c should be (6,1)-chordal")
	}
	if Is61Chordal(bipartiteCycle(3)) {
		t.Error("chordless C6 should not be (6,1)-chordal")
	}
}

func TestFig5ProperContainment(t *testing.T) {
	b := fig5()
	cl := Classify(b)
	if !cl.V1Chordal || !cl.V1Conformal {
		t.Errorf("fig5 should be V1-chordal and V1-conformal: %+v", cl)
	}
	if !cl.V2Chordal || !cl.V2Conformal {
		t.Errorf("fig5 should be V2-chordal and V2-conformal: %+v", cl)
	}
	if cl.Chordal61 {
		t.Error("fig5 should NOT be (6,1)-chordal")
	}
	if !cl.AlphaV1() || !cl.AlphaV2() {
		t.Error("AlphaV1/AlphaV2 should hold on fig5")
	}
}

func TestCorollary2Containment(t *testing.T) {
	// (6,1)-chordal ⇒ Vi-chordal ∧ Vi-conformal for i = 1, 2, on random
	// bipartite graphs (Corollary 2).
	r := rand.New(rand.NewSource(31))
	seen61 := 0
	for iter := 0; iter < 600; iter++ {
		b := randomBipartite(r, 2+r.Intn(4), 2+r.Intn(4), r.Float64())
		cl := Classify(b)
		if cl.Chordal41 && !cl.Chordal62 {
			t.Fatalf("(4,1) ⊄ (6,2) on %v", b.G())
		}
		if cl.Chordal62 && !cl.Chordal61 {
			t.Fatalf("(6,2) ⊄ (6,1) on %v", b.G())
		}
		if cl.Chordal61 {
			seen61++
			if !cl.AlphaV1() || !cl.AlphaV2() {
				t.Fatalf("Corollary 2 violated on %v: %+v", b.G(), cl)
			}
		}
	}
	if seen61 == 0 {
		t.Fatal("no (6,1)-chordal samples; generator broken")
	}
}

func TestTheorem1AgainstReference(t *testing.T) {
	// The fast recognizers (via Theorem 1's hypergraph route) must agree
	// with the literal Definition 4/5 checks on random bipartite graphs.
	r := rand.New(rand.NewSource(37))
	for iter := 0; iter < 300; iter++ {
		b := randomBipartite(r, 2+r.Intn(4), 2+r.Intn(4), r.Float64())
		g := b.G()
		if got, want := Is41Chordal(b), reference.IsMNChordal(g, 4, 1); got != want {
			t.Fatalf("(4,1) mismatch on %v: fast=%v ref=%v", g, got, want)
		}
		if got, want := Is61Chordal(b), reference.IsMNChordal(g, 6, 1); got != want {
			t.Fatalf("(6,1) mismatch on %v: fast=%v ref=%v", g, got, want)
		}
		if got, want := Is62Chordal(b), reference.IsMNChordal(g, 6, 2); got != want {
			t.Fatalf("(6,2) mismatch on %v: fast=%v ref=%v", g, got, want)
		}
		if got, want := IsV1Chordal(b), reference.IsV1Chordal(b); got != want {
			t.Fatalf("V1-chordal mismatch on %v: fast=%v ref=%v", g, got, want)
		}
		if got, want := IsV1Conformal(b), reference.IsV1Conformal(b); got != want {
			t.Fatalf("V1-conformal mismatch on %v: fast=%v ref=%v", g, got, want)
		}
		if got, want := IsV2Chordal(b), reference.IsV2Chordal(b); got != want {
			t.Fatalf("V2-chordal mismatch on %v: fast=%v ref=%v", g, got, want)
		}
		if got, want := IsV2Conformal(b), reference.IsV2Conformal(b); got != want {
			t.Fatalf("V2-conformal mismatch on %v: fast=%v ref=%v", g, got, want)
		}
	}
}

func TestTheorem1Statements(t *testing.T) {
	// Statements (i)–(vi) of Theorem 1 as executable assertions on random
	// bipartite graphs.
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 300; iter++ {
		b := randomBipartite(r, 2+r.Intn(4), 2+r.Intn(4), r.Float64())
		h1 := b.HypergraphV1().H
		h2 := b.HypergraphV2().H
		if Is41Chordal(b) != h1.BergeAcyclic() {
			t.Fatalf("(i) fails on %v", b.G())
		}
		if Is62Chordal(b) != h1.GammaAcyclic() {
			t.Fatalf("(ii) fails on %v", b.G())
		}
		if Is61Chordal(b) != h1.BetaAcyclic() {
			t.Fatalf("(iii) fails on %v", b.G())
		}
		// (iv): same statements for H².
		sw := b.Swap()
		if Is41Chordal(sw) != h2.BergeAcyclic() || Is62Chordal(sw) != h2.GammaAcyclic() || Is61Chordal(sw) != h2.BetaAcyclic() {
			t.Fatalf("(iv) fails on %v", b.G())
		}
		// (v)/(vi): Vi-chordal ∧ Vi-conformal ⟺ Hⁱ α-acyclic.
		if (IsV1Chordal(b) && IsV1Conformal(b)) != h1.AlphaAcyclic() {
			t.Fatalf("(v) fails on %v", b.G())
		}
		if (IsV2Chordal(b) && IsV2Conformal(b)) != h2.AlphaAcyclic() {
			t.Fatalf("(vi) fails on %v", b.G())
		}
	}
}

func TestMCSOrderIsPermutation(t *testing.T) {
	g := completeGraph(6)
	order := MCSOrderFrozen(g.Freeze())
	seen := map[int]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatal("MCS repeats a node")
		}
		seen[v] = true
	}
	if len(order) != 6 {
		t.Fatal("MCS order wrong length")
	}
}

func TestClassifyOnFig3(t *testing.T) {
	cl := Classify(fig3a())
	if !cl.Chordal41 || !cl.Chordal62 || !cl.Chordal61 || !cl.AlphaV1() || !cl.AlphaV2() {
		t.Errorf("fig3a classification: %+v", cl)
	}
	cl = Classify(fig3c())
	if cl.Chordal41 || cl.Chordal62 || !cl.Chordal61 {
		t.Errorf("fig3c classification: %+v", cl)
	}
}
