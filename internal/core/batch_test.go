package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/intset"
)

// hubBatch builds count queries over the nodes of pool that overlap on a
// small hub of terminals, with two random terminals each, so the batch
// mixes shared terminals, duplicates across queries and (on sparse
// schemes) disconnected sets.
func hubBatch(r *rand.Rand, pool []int, count int) [][]int {
	n := len(pool)
	hub := r.Perm(n)[:3]
	var queries [][]int
	for i := 0; i < count; i++ {
		q := []int{pool[hub[i%3]]}
		if i%3 != 2 {
			q = append(q, pool[hub[(i+1)%3]])
		}
		for _, j := range r.Perm(n)[:2] {
			q = append(q, pool[j])
		}
		queries = append(queries, intset.FromSlice(q)) // distinct, sorted
	}
	return queries
}

// largestComponent returns the node ids of b's largest connected
// component, so queries drawn from it are always connectable.
func largestComponent(b *bipartite.Graph) []int {
	var best []int
	for _, c := range b.G().Components() {
		if len(c) > len(best) {
			best = c
		}
	}
	return best
}

// batchCase is one scheme, option set and batch for
// checkBatchMatchesConnect.
type batchCase struct {
	name    string
	b       *bipartite.Graph
	opts    []core.Option
	queries [][]int
	method  core.Method // some answer must come from this solver
}

// checkBatchMatchesConnect holds ConnectBatch to the bit-for-bit
// contract: every batch answer must equal an independent Connect call on
// a separate connector, errors included, and at least one answer must
// come from the case's intended solver.
func checkBatchMatchesConnect(t *testing.T, c batchCase) {
	t.Helper()
	ctx := context.Background()
	svc := core.Open(c.b, c.opts...)
	ref := core.New(c.b, c.opts...)
	sawMethod := false
	for i, res := range svc.ConnectBatch(ctx, c.queries) {
		want, wantErr := ref.Connect(ctx, c.queries[i])
		if (res.Err == nil) != (wantErr == nil) {
			t.Fatalf("%s query %v: error mismatch: batch %v, reference %v", c.name, c.queries[i], res.Err, wantErr)
		}
		if wantErr != nil {
			if res.Err.Error() != wantErr.Error() {
				t.Fatalf("%s query %v: different errors: batch %v, reference %v", c.name, c.queries[i], res.Err, wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(res.Conn, want) {
			t.Fatalf("%s query %v: batch answer differs from reference:\nbatch     %+v\nreference %+v", c.name, c.queries[i], res.Conn, want)
		}
		sawMethod = sawMethod || res.Conn.Method == c.method
	}
	if !sawMethod {
		t.Errorf("%s: no answer dispatched to %v", c.name, c.method)
	}
}

// TestConnectBatchPlannerEquivalence checks the ConnectBatch ≡ Connect
// contract on a tree, an α-acyclic, a sparse and a dense scheme, one per
// solver arm of the dispatch. (The name dates from the removed batch
// planner; the contract it checks is the same.)
func TestConnectBatchPlannerEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, c := range []struct {
		name   string
		b      *bipartite.Graph
		method core.Method
	}{
		{"tree", gen.RandomTree(r, 120), core.MethodAlgorithm2},
		{"acyclic", bipartite.FromHypergraph(gen.AlphaAcyclic(r, 24, 4, 3)).B, core.MethodAlgorithm1},
		{"sparse", gen.RandomBipartite(r, 16, 16, 0.12), core.MethodExact}, // components → errors too
		{"dense", gen.RandomBipartite(r, 18, 18, 0.35), core.MethodExact},
	} {
		pool := c.b.G().Nodes()
		if c.name == "acyclic" {
			// The generated join forest has many components; stay inside
			// one so Algorithm 1 actually runs.
			pool = largestComponent(c.b)
		}
		checkBatchMatchesConnect(t, batchCase{c.name, c.b, nil, hubBatch(r, pool, 12), c.method})
	}
}

// TestConnectBatchPlannerHeuristic checks the same contract on the
// heuristic arm: many terminals and no chordality guarantee. (The name
// dates from the removed batch planner.)
func TestConnectBatchPlannerHeuristic(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	b := gen.RandomBipartite(r, 30, 30, 0.25)
	hub := intset.FromSlice(r.Perm(b.N())[:6])
	var queries [][]int
	for i := 0; i < 8; i++ {
		q := append([]int(nil), hub...)
		q = append(q, r.Perm(b.N())[:3]...)
		queries = append(queries, intset.FromSlice(q))
	}
	checkBatchMatchesConnect(t, batchCase{"heuristic", b, []core.Option{core.WithExactLimit(2)}, queries, core.MethodHeuristic})
}
