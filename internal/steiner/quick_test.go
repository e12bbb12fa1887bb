package steiner_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/reference"
	"repro/internal/steiner"
)

func TestQuickExactNeverBeatenByAnyCover(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := gen.RandomConnectedBipartite(r, 2+r.Intn(3), 2+r.Intn(3), 0.4)
		g := b.G()
		terms := r.Perm(g.N())[:2]
		tree, err := steiner.ExactFrozen(ctx, g.Freeze(), terms)
		if err != nil {
			return true // disconnected terminals
		}
		// Any random connected superset cover has at least as many nodes.
		cover, ok := reference.MinimumCover(g, terms)
		return ok && tree.Nodes.Len() == cover.Len()
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickAlgorithmsReturnValidTrees(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := gen.AlphaAcyclic(r, 2+r.Intn(5), 3, 2)
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() || g.N() < 3 {
			return true
		}
		terms := r.Perm(g.N())[:2]
		t1, err := steiner.Algorithm1Frozen(ctx, b.Freeze(), terms)
		if err != nil {
			return false
		}
		if t1.Validate(g, terms) != nil {
			return false
		}
		t2, err := steiner.Algorithm2Frozen(ctx, g.Freeze(), terms)
		if err != nil {
			return false
		}
		if t2.Validate(g, terms) != nil {
			return false
		}
		// V2 counts: Algorithm 1's is never worse.
		return steiner.V2Count(b, t1) <= steiner.V2Count(b, t2)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickEliminationIsNonredundant(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := gen.RandomConnectedBipartite(r, 2+r.Intn(3), 2+r.Intn(3), 0.4)
		g := b.G()
		terms := r.Perm(g.N())[:2]
		tree, err := steiner.EliminateOrderedFrozen(ctx, g.Freeze(), terms, r.Perm(g.N()))
		if err != nil {
			return true
		}
		return reference.IsNonredundantCover(g, tree.Nodes, terms)
	}, &quick.Config{MaxCount: 250})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickRankedCoversSortedAndValid(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := gen.RandomConnectedBipartite(r, 2+r.Intn(3), 2+r.Intn(3), 0.4)
		g := b.G()
		terms := r.Perm(g.N())[:2]
		covers, err := steiner.RankedCovers(ctx, g.Freeze(), terms, g.N(), 6)
		if err != nil {
			return false
		}
		for i, c := range covers {
			for _, p := range terms {
				if !c.Contains(p) {
					return false
				}
			}
			if i > 0 && covers[i-1].Len() > c.Len() {
				return false // must be sorted ascending
			}
			// No duplicates.
			for j := 0; j < i; j++ {
				if covers[j].Equal(c) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickX3CReductionSound(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := 1 + r.Intn(2)
		inst := steiner.X3CInstance{Q: q, Triples: gen.RandomX3C(r, q, q+1+r.Intn(2), r.Intn(2) == 0)}
		red, err := steiner.ReduceX3C(inst)
		if err != nil {
			return false
		}
		opt := reference.SteinerMinimumNodes(red.B.G(), red.Terminals)
		within := opt != -1 && opt <= red.Budget
		return within == inst.Solve()
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}
