package graph

import (
	"fmt"
	"math/bits"
	"sort"
)

// Frozen is an immutable compressed-sparse-row (CSR) view of a Graph,
// compiled once with Freeze. The adjacency of node v is the slice
// neighbors[offsets[v]:offsets[v+1]], sorted ascending; for graphs up to
// matrixMaxN nodes a dense bitset adjacency matrix is also compiled, making
// HasEdge O(1). A Frozen never changes after Freeze returns, so any number
// of goroutines may query and traverse it concurrently without
// synchronization — this is the substrate the classify-once/query-many
// serving stack (core.Connector, core.Service) is built on.
type Frozen struct {
	labels    []string
	index     map[string]int
	offsets   []int32 // len N()+1; offsets[v] is where v's adjacency starts
	neighbors []int32 // len 2·M(); concatenated sorted adjacency lists
	m         int
	matrix    []uint64 // optional n×n adjacency bitset, row-major; nil when large
	stride    int      // uint64 words per matrix row
}

// matrixMaxN bounds the node count for which Freeze compiles the dense
// bitset adjacency matrix (n² bits: 2048 nodes cost 512 KiB). Above it
// HasEdge falls back to binary search over the CSR slice.
const matrixMaxN = 2048

// Freeze compiles g into its immutable CSR view. The snapshot is deep:
// later mutation of g does not affect the Frozen. Cost is O(n + m).
func (g *Graph) Freeze() *Frozen {
	n := g.N()
	f := &Frozen{
		labels:  append([]string(nil), g.labels...),
		index:   make(map[string]int, len(g.index)),
		offsets: make([]int32, n+1),
		m:       g.m,
	}
	for l, id := range g.index {
		f.index[l] = id
	}
	f.neighbors = make([]int32, 0, 2*g.m)
	for v := 0; v < n; v++ {
		for _, w := range g.adj[v] {
			f.neighbors = append(f.neighbors, int32(w))
		}
		f.offsets[v+1] = int32(len(f.neighbors))
	}
	if n > 0 && n <= matrixMaxN {
		f.stride = (n + 63) / 64
		f.matrix = make([]uint64, n*f.stride)
		for v := 0; v < n; v++ {
			row := f.matrix[v*f.stride : (v+1)*f.stride]
			for _, w := range g.adj[v] {
				row[w>>6] |= 1 << (uint(w) & 63)
			}
		}
	}
	return f
}

// CSR returns the compiled adjacency arrays: offsets has N()+1 entries and
// the sorted adjacency of node v is neighbors[offsets[v]:offsets[v+1]].
// Both slices are the Frozen's own storage and must not be modified — this
// accessor exists so serializers (internal/snapshot) can write the compiled
// form without an intermediate copy.
func (f *Frozen) CSR() (offsets, neighbors []int32) { return f.offsets, f.neighbors }

// Matrix returns the dense adjacency bitset (row-major, stride uint64 words
// per row) or (nil, 0) when it was not compiled. The slice is shared and
// must not be modified.
func (f *Frozen) Matrix() (words []uint64, stride int) { return f.matrix, f.stride }

// NodeLabels returns the label of every node, indexed by id. The slice is
// shared and must not be modified.
func (f *Frozen) NodeLabels() []string { return f.labels }

// RestoreFrozen assembles a Frozen directly from previously compiled parts
// — the inverse of taking CSR/Matrix/NodeLabels apart, used to revive a
// serialized epoch without re-running Freeze. The slices are adopted, not
// copied (they may alias a read-only mapped file); callers must not modify
// them afterwards. matrix may be nil (HasEdge then binary-searches the CSR
// slice, answers unchanged); when present, stride and the matrix length
// must match n.
//
// The structural invariants every Freeze output satisfies are verified —
// monotone offsets, strictly ascending in-range adjacency rows, no self
// loops, symmetric edges, a matrix that agrees with the CSR bit for bit,
// distinct labels — so a Frozen restored from hostile or corrupted bytes
// either equals a genuine compile or fails here, it never panics or
// answers wrongly later inside a solver.
func RestoreFrozen(labels []string, offsets, neighbors []int32, matrix []uint64, stride int) (*Frozen, error) {
	n := len(labels)
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("graph: restore: %d offsets for %d nodes (want %d)", len(offsets), n, n+1)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: restore: offsets[0] = %d, want 0", offsets[0])
	}
	if int(offsets[n]) != len(neighbors) {
		return nil, fmt.Errorf("graph: restore: offsets end at %d but %d neighbors are present", offsets[n], len(neighbors))
	}
	if len(neighbors)%2 != 0 {
		return nil, fmt.Errorf("graph: restore: odd neighbor count %d (edges are stored twice)", len(neighbors))
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("graph: restore: offsets decrease at node %d", v)
		}
		row := neighbors[offsets[v]:offsets[v+1]]
		for i, w := range row {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: restore: node %d has neighbor %d out of range [0, %d)", v, w, n)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: restore: self loop at node %d", v)
			}
			if i > 0 && row[i-1] >= w {
				return nil, fmt.Errorf("graph: restore: adjacency of node %d is not strictly ascending", v)
			}
		}
	}
	// Symmetry: every stored arc must have its mirror, or traversals and
	// HasEdge would disagree about the same edge.
	for v := 0; v < n; v++ {
		for _, w := range neighbors[offsets[v]:offsets[v+1]] {
			row := neighbors[offsets[w]:offsets[w+1]]
			j := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
			if j >= len(row) || row[j] != int32(v) {
				return nil, fmt.Errorf("graph: restore: edge %d-%d has no mirror entry", v, w)
			}
		}
	}
	if matrix != nil {
		wantStride := (n + 63) / 64
		if stride != wantStride || len(matrix) != n*stride {
			return nil, fmt.Errorf("graph: restore: matrix is %d words with stride %d for %d nodes (want %d×%d)",
				len(matrix), stride, n, n, wantStride)
		}
		// Content must agree with the CSR bit for bit: HasEdge answers from
		// the matrix while traversals answer from the adjacency lists, so a
		// lying bitset would make the two halves of the same Frozen
		// disagree. Every neighbor bit must be set and each row's popcount
		// must equal the degree — together that pins the row exactly (no
		// extra bits, none missing, padding clear).
		for v := 0; v < n; v++ {
			row := matrix[v*stride : (v+1)*stride]
			ones := 0
			for _, w := range row {
				ones += bits.OnesCount64(w)
			}
			if ones != int(offsets[v+1]-offsets[v]) {
				return nil, fmt.Errorf("graph: restore: matrix row %d has %d bits for degree %d", v, ones, offsets[v+1]-offsets[v])
			}
			for _, w := range neighbors[offsets[v]:offsets[v+1]] {
				if row[w>>6]&(1<<(uint(w)&63)) == 0 {
					return nil, fmt.Errorf("graph: restore: matrix disagrees with CSR on edge %d-%d", v, w)
				}
			}
		}
	} else {
		stride = 0
	}
	index := make(map[string]int, n)
	for v, l := range labels {
		if _, dup := index[l]; dup {
			return nil, fmt.Errorf("graph: restore: duplicate node label %q", l)
		}
		index[l] = v
	}
	return &Frozen{
		labels:    labels,
		index:     index,
		offsets:   offsets,
		neighbors: neighbors,
		m:         len(neighbors) / 2,
		matrix:    matrix,
		stride:    stride,
	}, nil
}

func (f *Frozen) check(v int) {
	if v < 0 || v >= len(f.labels) {
		panic(fmt.Sprintf("graph: node id %d out of range [0, %d)", v, len(f.labels)))
	}
}

// N returns the number of nodes.
func (f *Frozen) N() int { return len(f.labels) }

// M returns the number of edges.
func (f *Frozen) M() int { return f.m }

// HasMatrix reports whether the dense adjacency bitset was compiled.
func (f *Frozen) HasMatrix() bool { return f.matrix != nil }

// Label returns the label of node v.
func (f *Frozen) Label(v int) string {
	f.check(v)
	return f.labels[v]
}

// Labels maps a slice of node ids to their labels.
func (f *Frozen) Labels(vs []int) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = f.Label(v)
	}
	return out
}

// ID returns the id of the node with the given label.
func (f *Frozen) ID(label string) (int, bool) {
	id, ok := f.index[label]
	return id, ok
}

// MustID returns the id of the node with the given label, panicking if the
// label is unknown.
func (f *Frozen) MustID(label string) int {
	id, ok := f.index[label]
	if !ok {
		panic(fmt.Sprintf("graph: unknown node label %q", label))
	}
	return id
}

// IDs maps labels to node ids, panicking on unknown labels.
func (f *Frozen) IDs(labels ...string) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = f.MustID(l)
	}
	return out
}

// Degree returns the degree of v.
func (f *Frozen) Degree(v int) int {
	f.check(v)
	return int(f.offsets[v+1] - f.offsets[v])
}

// Neighbors returns the sorted adjacency slice of v. The slice aliases the
// CSR arrays and must not be modified.
func (f *Frozen) Neighbors(v int) []int32 {
	f.check(v)
	return f.neighbors[f.offsets[v]:f.offsets[v+1]]
}

// HasEdge reports whether the edge {u, v} is present: O(1) via the bitset
// matrix when compiled, O(log degree) otherwise.
func (f *Frozen) HasEdge(u, v int) bool {
	f.check(u)
	f.check(v)
	if f.matrix != nil {
		return f.matrix[u*f.stride+(v>>6)]&(1<<(uint(v)&63)) != 0
	}
	nbr := f.neighbors[f.offsets[u]:f.offsets[u+1]]
	lo, hi := 0, len(nbr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbr[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nbr) && nbr[lo] == int32(v)
}

// Edges returns all edges with U < V, in lexicographic order.
func (f *Frozen) Edges() []Edge {
	out := make([]Edge, 0, f.m)
	for u := 0; u < f.N(); u++ {
		for _, v := range f.neighbors[f.offsets[u]:f.offsets[u+1]] {
			if int32(u) < v {
				out = append(out, Edge{u, int(v)})
			}
		}
	}
	return out
}
