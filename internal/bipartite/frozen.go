package bipartite

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hypergraph"
)

// Frozen is an immutable compiled view of a bipartite Graph: the frozen CSR
// graph plus the (V1, V2) partition. Like graph.Frozen it never changes
// after Freeze returns and is safe for unsynchronized concurrent readers;
// it is the scheme representation core.Connector compiles once and serves
// queries from.
type Frozen struct {
	g    *graph.Frozen
	side []graph.Side
	v1   []int
	v2   []int
}

// Freeze compiles b into its immutable view. The snapshot is deep: later
// mutation of b does not affect the Frozen.
func (b *Graph) Freeze() *Frozen {
	f := &Frozen{
		g:    b.g.Freeze(),
		side: append([]graph.Side(nil), b.side...),
	}
	for v, s := range f.side {
		if s == graph.Side1 {
			f.v1 = append(f.v1, v)
		} else {
			f.v2 = append(f.v2, v)
		}
	}
	return f
}

// RestoreFrozen assembles a Frozen from a restored graph and its side
// assignment — the serialization inverse of Freeze, used by
// internal/snapshot to revive a compiled epoch. side is adopted, not
// copied, and must not be modified afterwards. The bipartite invariants are
// verified: one side per node, every side either Side1 or Side2, every edge
// crossing sides.
func RestoreFrozen(g *graph.Frozen, side []graph.Side) (*Frozen, error) {
	if len(side) != g.N() {
		return nil, fmt.Errorf("bipartite: restore: %d side entries for %d nodes", len(side), g.N())
	}
	f := &Frozen{g: g, side: side}
	for v, s := range side {
		switch s {
		case graph.Side1:
			f.v1 = append(f.v1, v)
		case graph.Side2:
			f.v2 = append(f.v2, v)
		default:
			return nil, fmt.Errorf("bipartite: restore: node %d has invalid side %d", v, s)
		}
		for _, w := range g.Neighbors(v) {
			if side[w] == s {
				return nil, fmt.Errorf("bipartite: restore: edge %d-%d inside one side", v, w)
			}
		}
	}
	return f, nil
}

// G returns the underlying frozen graph.
func (f *Frozen) G() *graph.Frozen { return f.g }

// Sides returns the side of every node, indexed by id. The slice is shared
// and must not be modified.
func (f *Frozen) Sides() []graph.Side { return f.side }

// N returns the number of nodes.
func (f *Frozen) N() int { return f.g.N() }

// M returns the number of arcs.
func (f *Frozen) M() int { return f.g.M() }

// Side returns which side node v is on.
func (f *Frozen) Side(v int) graph.Side { return f.side[v] }

// V1 returns the ids of the V1 nodes in increasing order. The slice is
// shared and must not be modified.
func (f *Frozen) V1() []int { return f.v1 }

// V2 returns the ids of the V2 nodes in increasing order. The slice is
// shared and must not be modified.
func (f *Frozen) V2() []int { return f.v2 }

// HypergraphV1 builds H¹G (Definition 2) straight off the CSR arrays:
// nodes correspond to V1, and every V2 node with at least one neighbour
// contributes an edge holding its V1-neighbourhood. Matches
// Graph.HypergraphV1 exactly.
func (f *Frozen) HypergraphV1() Correspondence {
	return f.hypergraphSide(graph.Side1, nil)
}

// HypergraphV2 builds H²G symmetrically: nodes correspond to V2, edges to
// V1 neighbourhoods.
func (f *Frozen) HypergraphV2() Correspondence {
	return f.hypergraphSide(graph.Side2, nil)
}

// HypergraphV1AliveBits is HypergraphV1 restricted to the nodes of the
// packed alive mask: only alive V1 nodes become hypergraph nodes, only
// alive V2 nodes with at least one alive neighbour contribute edges.
// alive == nil means all nodes. For a connected-component mask this equals
// Induced(component).HypergraphV1() up to the id mapping, without building
// the induced copy. The mask is the representation the word-parallel
// solver kernels (internal/steiner) keep, so Algorithm 1's frozen path
// never expands it into []bool.
func (f *Frozen) HypergraphV1AliveBits(alive graph.Bits) Correspondence {
	if alive == nil {
		return f.hypergraphSide(graph.Side1, nil)
	}
	return f.hypergraphSide(graph.Side1, alive.Has)
}

// hypergraphSide builds the Definition 2 hypergraph whose nodes are the
// (alive) nodes of side s and whose edges are the (alive) neighbourhoods of
// the other side's nodes (alive == nil: every node). EdgeToV2 then holds
// other-side node ids.
func (f *Frozen) hypergraphSide(s graph.Side, alive func(int) bool) Correspondence {
	nodes, edges := f.v1, f.v2
	if s == graph.Side2 {
		nodes, edges = f.v2, f.v1
	}
	h := hypergraph.New()
	v1ToNode := map[int]int{}
	var nodeToV1 []int
	for _, v := range nodes {
		if alive != nil && !alive(v) {
			continue
		}
		v1ToNode[v] = h.AddNode(f.g.Label(v))
		nodeToV1 = append(nodeToV1, v)
	}
	var edgeToV2 []int
	members := make([]int, 0, 16)
	for _, w := range edges {
		if alive != nil && !alive(w) {
			continue
		}
		members = members[:0]
		for _, v := range f.g.Neighbors(w) {
			if alive != nil && !alive(int(v)) {
				continue
			}
			members = append(members, v1ToNode[int(v)])
		}
		if len(members) == 0 {
			continue
		}
		h.AddEdge(f.g.Label(w), members...)
		edgeToV2 = append(edgeToV2, w)
	}
	return Correspondence{H: h, EdgeToV2: edgeToV2, NodeToV1: nodeToV1, V1ToNode: v1ToNode}
}
