package chordality_test

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/experiments"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/reference"
	"repro/internal/snapshot"
	"repro/internal/steiner"
)

// TestClassifyFrozenMatchesReferences holds every Class field of
// ClassifyFrozen to recognizers that share no code with it:
//
//   - on schemes of at most 16 nodes, to the definitions — the cycle
//     searches of internal/reference for (4,1), (6,2) and (6,1)-chordality
//     and V1/V2-chordality, and Definition 5's literal conformity check;
//   - on every scheme, to the plain polynomial oracles — Berge-cycle
//     search, the rescan-everything nest-point elimination, the all-triples
//     special-triangle scan, Gilmore's conformality scan called directly,
//     and primal chordality by simplicial elimination.
//
// The corpus: random bipartite graphs with chordal and with non-chordal
// primal graphs, the E-T1 and E-C2 corpora, every figure, the schemes the
// HTTP and snapshot end-to-end scripts serve, the checked-in snapshot
// golden (whose stored class must equal a fresh classification), and
// larger schemes: servebench solve-batch's four and a 954-node γ-acyclic
// one.
func TestClassifyFrozenMatchesReferences(t *testing.T) {
	type scheme struct {
		name string
		b    *bipartite.Graph
	}
	var cases []scheme
	add := func(name string, b *bipartite.Graph) { cases = append(cases, scheme{name, b}) }

	r := rand.New(rand.NewSource(16))
	for i := 0; i < 400; i++ {
		add("random", gen.RandomBipartite(r, 2+r.Intn(5), 2+r.Intn(5), 0.15+0.6*r.Float64()))
	}
	for i := 0; i < 40; i++ {
		add("alpha-incidence", bipartite.FromHypergraph(gen.AlphaAcyclic(r, 2+r.Intn(4), 3, 2)).B)
		add("chorded cycle", chordedCycle(r, 4+r.Intn(4), r.Intn(3)))
	}
	for _, c := range append(experiments.Theorem1Corpus(), experiments.Corollary2Corpus()...) {
		for _, b := range c.Schemes {
			add("corpus "+c.Name, b)
		}
	}
	for name, b := range map[string]*bipartite.Graph{
		"Fig2": fixtures.Fig2(), "Fig3a": fixtures.Fig3a(), "Fig3b": fixtures.Fig3b(), "Fig3c": fixtures.Fig3c(),
		"Fig5": fixtures.Fig5(), "Fig8": fixtures.Fig8(), "Fig10": fixtures.Fig10(), "Fig11": fixtures.Fig11(),
	} {
		add(name, b)
	}
	red, err := steiner.ReduceX3C(fixtures.Fig6Instance())
	if err != nil {
		t.Fatal(err)
	}
	add("Fig6", red.B)
	for _, script := range []string{"http_e2e.sh", "snapshot_e2e.sh"} {
		for name, b := range scriptSchemes(t, filepath.Join("..", "..", "scripts", script)) {
			add(script+" "+name, b)
		}
	}
	br := rand.New(rand.NewSource(1985))
	add("tree400", gen.RandomTree(br, 400))
	add("alpha-chain", bipartite.FromHypergraph(gen.NestedChain(20, 9)).B)
	add("sparse200", gen.RandomConnectedBipartite(br, 100, 100, 0.02))
	add("grid10", gen.GridBipartite(10, 10))
	add("gamma320", bipartite.FromHypergraph(gen.GammaAcyclic(rand.New(rand.NewSource(7)), 320, 3, 3)).B)

	snap, err := snapshot.ReadFile(filepath.Join("..", "snapshot", "testdata", "library.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := chordality.ClassifyFrozen(snap.Frozen); got != snap.Class {
		t.Errorf("snapshot golden: stored class %+v, ClassifyFrozen %+v", snap.Class, got)
	}

	var chordalNotConformal, notChordal, definitional int
	for i, c := range cases {
		fb := c.b.Freeze()
		got := chordality.ClassifyFrozen(fb)
		if want := polynomialClass(fb); got != want {
			t.Fatalf("case %d (%s): ClassifyFrozen %+v, polynomial oracles %+v", i, c.name, got, want)
		}
		if c.b.N() <= 16 {
			definitional++
			if want := definitionalClass(c.b); got != want {
				t.Fatalf("case %d (%s): ClassifyFrozen %+v, definitions %+v", i, c.name, got, want)
			}
		}
		if got.V1Chordal && !got.V1Conformal {
			chordalNotConformal++
		}
		if !got.V1Chordal || !got.V2Chordal {
			notChordal++
		}
	}
	t.Logf("%d schemes: %d chordal but not conformal, %d not chordal, %d under the definitions",
		len(cases), chordalNotConformal, notChordal, definitional)
	// Both branches of Conformal must be exercised: GYO on chordal primal
	// graphs, including ones that are not conformal, and Gilmore's scan.
	if chordalNotConformal < 20 || notChordal < 20 || definitional < 900 {
		t.Fatalf("corpus too thin: %d chordal but not conformal, %d not chordal, %d under the definitions",
			chordalNotConformal, notChordal, definitional)
	}
}

// chordedCycle returns the bipartite cycle on k V1 and k V2 nodes plus
// up to extra random arcs: with few chords its H¹ and H² primal graphs
// keep a chordless cycle of length ≥ 4.
func chordedCycle(r *rand.Rand, k, extra int) *bipartite.Graph {
	b := bipartite.New()
	for i := 0; i < k; i++ {
		b.AddV1(fmt.Sprint("a", i)) // id 2i
		b.AddV2(fmt.Sprint("b", i)) // id 2i+1
	}
	for i := 0; i < k; i++ {
		b.AddEdge(2*i, 2*i+1)
		b.AddEdge(2*i+1, 2*((i+1)%k))
	}
	for ; extra > 0; extra-- {
		b.AddEdge(2*r.Intn(k), 2*r.Intn(k)+1)
	}
	return b
}

// definitionalClass classifies b by the literal definitions. Exponential.
func definitionalClass(b *bipartite.Graph) chordality.Class {
	h1 := b.HypergraphV1().H
	return chordality.Class{
		Chordal41:   reference.IsMNChordal(b.G(), 4, 1),
		Chordal62:   !reference.HasGammaCycle(h1),
		Chordal61:   !reference.HasBetaCycle(h1),
		V1Chordal:   reference.IsV1Chordal(b),
		V1Conformal: reference.IsV1Conformal(b),
		V2Chordal:   reference.IsV2Chordal(b),
		V2Conformal: reference.IsV2Conformal(b),
	}
}

// polynomialClass classifies fb by the plain polynomial oracles.
func polynomialClass(fb *bipartite.Frozen) chordality.Class {
	h1 := fb.HypergraphV1().H
	h2 := fb.HypergraphV2().H
	beta := len(reference.NestPointCore(h1)) == 0
	return chordality.Class{
		Chordal41:   h1.FindBergeCycle() == nil,
		Chordal62:   beta && reference.GammaTriangleScan(h1) == nil,
		Chordal61:   beta,
		V1Chordal:   simplicialChordal(h1.PrimalGraph()),
		V1Conformal: h1.ConformalWitness() == nil,
		V2Chordal:   simplicialChordal(h2.PrimalGraph()),
		V2Conformal: h2.ConformalWitness() == nil,
	}
}

// simplicialChordal decides chordality by deleting simplicial nodes (those
// whose remaining neighbours form a clique): g is chordal iff that deletes
// every node. A simplicial node stays simplicial when others go, so each
// sweep deletes all it finds.
func simplicialChordal(g *graph.Graph) bool {
	gone := make([]bool, g.N())
	left := g.N()
	for deleted := true; deleted && left > 0; {
		deleted = false
		for v := range gone {
			if gone[v] {
				continue
			}
			var nb []int
			for _, u := range g.Neighbors(v) {
				if !gone[u] {
					nb = append(nb, u)
				}
			}
			clique := true
			for i := 0; i < len(nb) && clique; i++ {
				for j := i + 1; j < len(nb) && clique; j++ {
					clique = g.HasEdge(nb[i], nb[j])
				}
			}
			if clique {
				gone[v] = true
				left--
				deleted = true
			}
		}
	}
	return left == 0
}

// scriptSchemes returns the schemes an end-to-end script writes with
// `cat > "$WORK/<name>.txt" <<'EOF'` here-documents, parsed.
func scriptSchemes(t *testing.T, path string) map[string]*bipartite.Graph {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]*bipartite.Graph{}
	var name string
	var body strings.Builder
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		switch {
		case name == "" && strings.HasPrefix(line, `cat > "$WORK/`) && strings.HasSuffix(line, `.txt" <<'EOF'`):
			name = strings.TrimSuffix(strings.TrimPrefix(line, `cat > "$WORK/`), `.txt" <<'EOF'`)
			body.Reset()
		case name != "" && line == "EOF":
			b, err := graphio.ReadBipartite(strings.NewReader(body.String()))
			if err != nil {
				t.Fatalf("%s: scheme %s: %v", path, name, err)
			}
			out[name] = b
			name = ""
		case name != "":
			body.WriteString(line + "\n")
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: no schemes found", path)
	}
	return out
}
