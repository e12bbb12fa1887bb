// Hardness demo: the paper's two NP-completeness gadgets, executed.
//
// Theorem 2 reduces exact cover by 3-sets to the Steiner problem on
// V1-chordal, V1-conformal bipartite graphs (Fig 6): a tree over P with at
// most 4q+1 nodes exists iff the X3C instance is solvable. The remark
// after Corollary 4 reduces the cardinality Steiner problem in chordal
// graphs to pseudo-Steiner w.r.t. V2 on V1-chordal graphs (Fig 9).
//
//	go run ./examples/hardness
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/chordality"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/steiner"
)

func main() {
	ctx := context.Background()
	// --- Theorem 2: the Fig 6 instance. ---
	inst := fixtures.Fig6Instance()
	fmt.Printf("X3C instance: |X| = %d, C = %v\n", 3*inst.Q, inst.Triples)
	fmt.Printf("solvable: %v\n", inst.Solve())
	red, err := steiner.ReduceX3C(inst)
	if err != nil {
		log.Fatal(err)
	}
	g := red.B.G()
	fmt.Printf("gadget: %d nodes, %d arcs; V1-chordal=%v V1-conformal=%v\n",
		g.N(), g.M(), chordality.IsV1Chordal(red.B), chordality.IsV1Conformal(red.B))
	tree, err := steiner.ExactFrozen(ctx, g.Freeze(), red.Terminals)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Steiner optimum over P = V2: %d nodes (budget 4q+1 = %d)\n",
		tree.Nodes.Len(), red.Budget)
	fmt.Print("selected triples:")
	for _, v := range tree.Nodes {
		for i, tv := range red.TripleVs {
			if v == tv {
				fmt.Printf(" c%d=%v", i+1, inst.Triples[i])
			}
		}
	}
	fmt.Println(" — an exact 3-cover, read off the tree")

	// An unsolvable variant overshoots the budget.
	broken := inst
	broken.Triples = inst.Triples[1:]
	red2, err := steiner.ReduceX3C(broken)
	if err != nil {
		log.Fatal(err)
	}
	if t2, err := steiner.ExactFrozen(ctx, red2.B.G().Freeze(), red2.Terminals); err == nil {
		fmt.Printf("without c1 (unsolvable): optimum %d > budget %d\n\n",
			t2.Nodes.Len(), red2.Budget)
	} else {
		fmt.Printf("without c1 (unsolvable): terminals not even connectable (%v)\n\n", err)
	}

	// --- Corollary 4 remark: the CSPC reduction. ---
	r := rand.New(rand.NewSource(42))
	ch := gen.RandomChordalGraph(r, 8, 3)
	fmt.Printf("chordal graph: %d nodes, %d arcs, chordal=%v\n",
		ch.N(), ch.M(), chordality.IsChordal(ch))
	cs := steiner.ReduceCSPC(ch)
	fmt.Printf("subdivision gadget: V1-chordal=%v V1-conformal=%v\n",
		chordality.IsV1Chordal(cs.B), chordality.IsV1Conformal(cs.B))
	terms := []int{cs.NodeVs[0], cs.NodeVs[ch.N()-1]}
	direct, err := steiner.ExactFrozen(ctx, ch.Freeze(), []int{0, ch.N() - 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("direct min-arc connection in the chordal graph: %d arcs\n",
		direct.Nodes.Len()-1)
	viaGadget, err := steiner.ExactFrozen(ctx, cs.B.G().Freeze(), terms)
	if err != nil {
		log.Fatal(err)
	}
	v2 := steiner.V2Count(cs.B, viaGadget)
	fmt.Printf("V2 nodes in the gadget connection: %d (equal by the reduction)\n", v2)
}
