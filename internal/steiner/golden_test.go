package steiner_test

// Golden answers for the frozen solvers. The files under testdata/ hold one
// line per solver call, in the order the queries below generate them: the
// call's inputs (solver, case, terminals, order), a tab, then the answer —
// the cover's node set and the spanning tree's edge list, or the error
// text. The inputs are stored so that a change in a generator fails loudly
// as input drift instead of quietly comparing a different query.
//
// The answers were recorded from the solvers' original mutable-graph
// implementations, which the frozen solvers reproduced bit for bit; the
// tests in frozen_test.go and boundary_test.go hold every frozen view to
// them.

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/steiner"
)

// goldenQuery is one recorded solver call.
type goldenQuery struct {
	solver string // Algorithm1, Algorithm2, EliminateOrdered, Exact, Approximate, Algorithm1WithOrder or EliminateOrderedStrict
	name   string // case label, including the scheme's node and edge counts
	b      *bipartite.Graph
	terms  []int
	order  []int // nil for solvers without an order
}

// key renders the query's inputs as the first four fields of its line.
func (q goldenQuery) key() string {
	order := "-"
	if q.order != nil {
		order = fmt.Sprint(q.order)
	}
	return fmt.Sprintf("%s\t%s\t%v\t%s", q.solver, q.name, q.terms, order)
}

// formatAnswer renders a solver's result as the last field of a line.
func formatAnswer(t steiner.Tree, err error) string {
	if err != nil {
		return "error=" + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes=%v edges=[", []int(t.Nodes))
	for i, e := range t.Edges {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d-%d", e.U, e.V)
	}
	sb.WriteByte(']')
	return sb.String()
}

// readGolden returns the lines of testdata/name.
func readGolden(t *testing.T, name string) []string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// namedScheme is a fixture with its figure name.
type namedScheme struct {
	name string
	b    *bipartite.Graph
}

// fixtureSchemes returns every bipartite fixture of the paper that the
// solvers run on, in a fixed order so the terminal sets drawn for each are
// reproducible.
func fixtureSchemes() []namedScheme {
	return []namedScheme{
		{"Fig2", fixtures.Fig2()},
		{"Fig3a", fixtures.Fig3a()},
		{"Fig3b", fixtures.Fig3b()},
		{"Fig3c", fixtures.Fig3c()},
		{"Fig5", fixtures.Fig5()},
		{"Fig8", fixtures.Fig8()},
		{"Fig10", fixtures.Fig10()},
		{"Fig11", fixtures.Fig11()},
	}
}

// terminalSets enumerates small terminal subsets of a graph for the
// equivalence sweeps.
func terminalSets(r *rand.Rand, n int) [][]int {
	sets := [][]int{{0}, {0, n - 1}}
	for k := 2; k <= 4 && k <= n; k++ {
		perm := r.Perm(n)
		sets = append(sets, perm[:k])
	}
	return sets
}

// caseName labels a scheme with its node and edge counts.
func caseName(prefix string, b *bipartite.Graph) string {
	return fmt.Sprintf("%s n=%d m=%d", prefix, b.N(), b.M())
}

// fixtureQueries runs one solver over the paper's fixtures with terminal
// sets drawn from seed.
func fixtureQueries(seed int64, solver string) []goldenQuery {
	r := rand.New(rand.NewSource(seed))
	var qs []goldenQuery
	for _, f := range fixtureSchemes() {
		for _, terms := range terminalSets(r, f.b.N()) {
			qs = append(qs, goldenQuery{solver: solver, name: caseName(f.name, f.b), b: f.b, terms: terms})
		}
	}
	return qs
}

// randomQueries is the random-scheme sweep: α-acyclic, γ-acyclic and
// random bipartite schemes, every solver on every terminal set, plus the
// two ablations under orders drawn from their own seeded stream.
func randomQueries() []goldenQuery {
	r := rand.New(rand.NewSource(59))
	ablation := rand.New(rand.NewSource(60))
	var qs []goldenQuery
	for trial := 0; trial < 25; trial++ {
		var b *bipartite.Graph
		switch trial % 3 {
		case 0:
			b = bipartite.FromHypergraph(gen.AlphaAcyclic(r, 6+r.Intn(20), 4, 3)).B
		case 1:
			b = bipartite.FromHypergraph(gen.GammaAcyclic(r, 6+r.Intn(20), 3, 3)).B
		default:
			b = gen.RandomBipartite(r, 4+r.Intn(10), 4+r.Intn(10), 0.3)
		}
		name := caseName(fmt.Sprintf("random/%d", trial), b)
		n := b.N()
		for _, terms := range terminalSets(r, n) {
			q := goldenQuery{name: name, b: b, terms: terms}
			qs = append(qs, q.with("Algorithm2", nil), q.with("Algorithm1", nil))
			qs = append(qs, q.with("EliminateOrdered", r.Perm(n)))
			if len(terms) <= 6 {
				qs = append(qs, q.with("Exact", nil))
			}
			qs = append(qs, q.with("Approximate", nil))
			qs = append(qs, q.with("Algorithm1WithOrder", ablation.Perm(n)))
			qs = append(qs, q.with("EliminateOrderedStrict", ablation.Perm(n)))
		}
	}
	return qs
}

// boundaryQueries is the word-boundary sweep: schemes whose node counts
// straddle the 64-bit word seams of the packed masks.
func boundaryQueries() []goldenQuery {
	r := rand.New(rand.NewSource(67))
	var qs []goldenQuery
	for _, n := range solverBoundarySizes {
		for trial := 0; trial < 4; trial++ {
			b := boundaryScheme(r, n)
			name := caseName(fmt.Sprintf("boundary/%d", trial), b)
			for _, terms := range terminalSets(r, n) {
				q := goldenQuery{name: name, b: b, terms: terms}
				qs = append(qs, q.with("Algorithm2", nil), q.with("Algorithm1", nil))
				qs = append(qs, q.with("EliminateOrdered", r.Perm(n)))
				if len(terms) <= 5 {
					qs = append(qs, q.with("Exact", nil))
				}
				qs = append(qs, q.with("Approximate", nil))
			}
		}
	}
	return qs
}

// with returns q for the given solver and order.
func (q goldenQuery) with(solver string, order []int) goldenQuery {
	q.solver, q.order = solver, order
	return q
}

// solverBoundarySizes mirrors the kernel-level sweep in internal/graph:
// the shapes where padding-bit and last-word bugs live.
var solverBoundarySizes = []int{1, 63, 64, 65, 127, 128, 129}

// boundaryScheme builds a random bipartite scheme with exactly n nodes
// (ids alternate sides) and expected degree ~2.5, so alive masks always
// end in a partially filled word whenever n is not a word multiple.
func boundaryScheme(r *rand.Rand, n int) *bipartite.Graph {
	b := bipartite.New()
	var v1, v2 []int
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			v1 = append(v1, b.AddV1(fmt.Sprintf("a%d", i)))
		} else {
			v2 = append(v2, b.AddV2(fmt.Sprintf("r%d", i)))
		}
	}
	p := 2.5 / float64(n)
	for _, u := range v1 {
		for _, w := range v2 {
			if r.Float64() < p {
				b.AddEdge(u, w)
			}
		}
	}
	return b
}
