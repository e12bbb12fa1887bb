// Package hypergraph implements the hypergraph substrate of the paper:
// hypergraphs with duplicate edges allowed (Definition 1), dual hypergraphs
// (Definition 3), primal (Gaifman) graphs and conformality (Definition 7),
// the four degrees of acyclicity — Berge, γ, β, α (Definitions 6–7) — with
// polynomial recognizers, and GYO reduction with join-tree and
// running-intersection orderings (used by Algorithm 1 via Lemma 1).
package hypergraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/intset"
)

// Hypergraph is a finite hypergraph H = (N, E). N is a set of labelled
// nodes with dense integer ids; E is a *family* of nonempty node sets, so
// duplicate edges are allowed (the bipartite-graph correspondence of
// Definition 2 depends on this). The zero value is not usable; create
// hypergraphs with New.
type Hypergraph struct {
	nodeLabels []string
	nodeIndex  map[string]int
	edges      []intset.Set
	edgeNames  []string
}

// New returns an empty hypergraph.
func New() *Hypergraph {
	return &Hypergraph{nodeIndex: make(map[string]int)}
}

// AddNode adds a node with the given label and returns its id. It panics on
// duplicate labels.
func (h *Hypergraph) AddNode(label string) int {
	if _, dup := h.nodeIndex[label]; dup {
		panic(fmt.Sprintf("hypergraph: duplicate node label %q", label))
	}
	id := len(h.nodeLabels)
	h.nodeLabels = append(h.nodeLabels, label)
	h.nodeIndex[label] = id
	return id
}

// EnsureNode returns the id of the node with the given label, adding it
// first if absent.
func (h *Hypergraph) EnsureNode(label string) int {
	if id, ok := h.nodeIndex[label]; ok {
		return id
	}
	return h.AddNode(label)
}

// AddEdge appends an edge with the given name over the given node ids and
// returns its index. Edges must be nonempty (Definition 1). Duplicate node
// ids within one edge are collapsed.
func (h *Hypergraph) AddEdge(name string, nodes ...int) int {
	if len(nodes) == 0 {
		panic("hypergraph: empty edge")
	}
	for _, v := range nodes {
		if v < 0 || v >= len(h.nodeLabels) {
			panic(fmt.Sprintf("hypergraph: node id %d out of range", v))
		}
	}
	h.edges = append(h.edges, intset.FromSlice(nodes))
	h.edgeNames = append(h.edgeNames, name)
	return len(h.edges) - 1
}

// AddEdgeLabels appends an edge over the nodes with the given labels,
// creating nodes as needed, and returns its index.
func (h *Hypergraph) AddEdgeLabels(name string, labels ...string) int {
	ids := make([]int, len(labels))
	for i, l := range labels {
		ids[i] = h.EnsureNode(l)
	}
	return h.AddEdge(name, ids...)
}

// N returns the number of nodes.
func (h *Hypergraph) N() int { return len(h.nodeLabels) }

// M returns the number of edges.
func (h *Hypergraph) M() int { return len(h.edges) }

// Size returns the total size Σ|e| of the edges.
func (h *Hypergraph) Size() int {
	s := 0
	for _, e := range h.edges {
		s += len(e)
	}
	return s
}

// Edge returns the node set of edge i. The returned set is shared with the
// hypergraph and must not be modified.
func (h *Hypergraph) Edge(i int) intset.Set {
	return h.edges[i]
}

// EdgeName returns the name of edge i.
func (h *Hypergraph) EdgeName(i int) string { return h.edgeNames[i] }

// NodeLabel returns the label of node v.
func (h *Hypergraph) NodeLabel(v int) string { return h.nodeLabels[v] }

// NodeID returns the id of the node with the given label.
func (h *Hypergraph) NodeID(label string) (int, bool) {
	id, ok := h.nodeIndex[label]
	return id, ok
}

// MustNodeID returns the id of a label known to exist, panicking otherwise.
func (h *Hypergraph) MustNodeID(label string) int {
	id, ok := h.nodeIndex[label]
	if !ok {
		panic(fmt.Sprintf("hypergraph: unknown node label %q", label))
	}
	return id
}

// EdgesOf returns the indices of the edges containing node v, in
// increasing order.
func (h *Hypergraph) EdgesOf(v int) []int {
	var out []int
	for i, e := range h.edges {
		if e.Contains(v) {
			out = append(out, i)
		}
	}
	return out
}

// incidence returns, for every node, the indices of the edges containing
// it in increasing order: EdgesOf for all nodes in one O(Σ|e|) pass.
func (h *Hypergraph) incidence() [][]int {
	edgesOf := make([][]int, h.N())
	for i, e := range h.edges {
		for _, v := range e {
			edgesOf[v] = append(edgesOf[v], i)
		}
	}
	return edgesOf
}

// NodeLabels maps node ids to labels.
func (h *Hypergraph) NodeLabels(vs []int) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = h.NodeLabel(v)
	}
	return out
}

// Clone returns a deep copy of h.
func (h *Hypergraph) Clone() *Hypergraph {
	c := &Hypergraph{
		nodeLabels: append([]string(nil), h.nodeLabels...),
		nodeIndex:  make(map[string]int, len(h.nodeIndex)),
		edges:      make([]intset.Set, len(h.edges)),
		edgeNames:  append([]string(nil), h.edgeNames...),
	}
	for l, id := range h.nodeIndex {
		c.nodeIndex[l] = id
	}
	for i, e := range h.edges {
		c.edges[i] = e.Clone()
	}
	return c
}

// Partial returns the partial hypergraph consisting of the given edges
// (over the same node set).
func (h *Hypergraph) Partial(edgeIdx []int) *Hypergraph {
	p := &Hypergraph{
		nodeLabels: h.nodeLabels,
		nodeIndex:  h.nodeIndex,
	}
	for _, i := range edgeIdx {
		p.edges = append(p.edges, h.edges[i])
		p.edgeNames = append(p.edgeNames, h.edgeNames[i])
	}
	return p
}

// IsConnected reports whether the hypergraph is connected: every pair of
// non-isolated nodes joined by a chain of intersecting edges, and at most
// one "edge component". Isolated nodes are ignored.
func (h *Hypergraph) IsConnected() bool {
	if h.M() == 0 {
		return true
	}
	seen := make([]bool, h.M())
	frontier := []int{0}
	seen[0] = true
	count := 1
	for len(frontier) > 0 {
		i := frontier[0]
		frontier = frontier[1:]
		for j := range h.edges {
			if !seen[j] && h.edges[i].Intersects(h.edges[j]) {
				seen[j] = true
				count++
				frontier = append(frontier, j)
			}
		}
	}
	return count == h.M()
}

// Equal reports whether h and o have the same node labels (up to node ids)
// and the same multiset of edges (compared as label sets, names ignored).
func (h *Hypergraph) Equal(o *Hypergraph) bool {
	keys := func(x *Hypergraph) []string {
		ks := make([]string, x.M())
		for i, e := range x.edges {
			labels := x.NodeLabels(e)
			sort.Strings(labels)
			ks[i] = strings.Join(labels, "\x00")
		}
		sort.Strings(ks)
		return ks
	}
	// Compare non-isolated node label sets.
	active := func(x *Hypergraph) []string {
		m := map[string]bool{}
		for _, e := range x.edges {
			for _, v := range e {
				m[x.NodeLabel(v)] = true
			}
		}
		var out []string
		for l := range m {
			out = append(out, l)
		}
		sort.Strings(out)
		return out
	}
	ha, oa := active(h), active(o)
	if len(ha) != len(oa) {
		return false
	}
	for i := range ha {
		if ha[i] != oa[i] {
			return false
		}
	}
	hk, ok := keys(h), keys(o)
	if len(hk) != len(ok) {
		return false
	}
	for i := range hk {
		if hk[i] != ok[i] {
			return false
		}
	}
	return true
}

// String renders the hypergraph for debugging.
func (h *Hypergraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hypergraph{n=%d m=%d", h.N(), h.M())
	for i, e := range h.edges {
		fmt.Fprintf(&b, " %s=%v", h.edgeNames[i], h.NodeLabels(e))
	}
	b.WriteByte('}')
	return b.String()
}
