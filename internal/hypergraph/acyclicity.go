package hypergraph

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/intset"
)

// Degree classifies a hypergraph by the strongest acyclicity condition it
// satisfies. The paper's Definition 6 classes are nested:
// Berge-acyclic ⇒ γ-acyclic ⇒ β-acyclic ⇒ α-acyclic (all containments
// proper; Fagin [6]).
type Degree int

// Acyclicity degrees, strongest first.
const (
	DegreeBerge Degree = iota
	DegreeGamma
	DegreeBeta
	DegreeAlpha
	DegreeCyclic
)

// String returns the conventional name of the degree.
func (d Degree) String() string {
	switch d {
	case DegreeBerge:
		return "Berge-acyclic"
	case DegreeGamma:
		return "gamma-acyclic"
	case DegreeBeta:
		return "beta-acyclic"
	case DegreeAlpha:
		return "alpha-acyclic"
	case DegreeCyclic:
		return "cyclic"
	}
	return fmt.Sprintf("Degree(%d)", int(d))
}

// Classify returns the strongest acyclicity degree h satisfies.
func (h *Hypergraph) Classify() Degree {
	switch {
	case h.BergeAcyclic():
		return DegreeBerge
	case h.GammaAcyclic():
		return DegreeGamma
	case h.BetaAcyclic():
		return DegreeBeta
	case h.AlphaAcyclic():
		return DegreeAlpha
	default:
		return DegreeCyclic
	}
}

// BergeAcyclic reports whether h has no Berge cycle (Definition 6). A Berge
// cycle of h is exactly a cycle of the bipartite incidence graph of h, so h
// is Berge-acyclic iff the incidence graph is a forest. The check is a
// DFS over the incidence structure; see FindBergeCycle.
func (h *Hypergraph) BergeAcyclic() bool {
	return h.FindBergeCycle() == nil
}

// BergeCycle is a Berge cycle witness: Edges[i] and Edges[i+1] share
// Nodes[i], and Edges[q-1], Edges[0] share Nodes[q-1]; all edges and all
// nodes are distinct, q ≥ 2.
type BergeCycle struct {
	Edges []int
	Nodes []int
}

// FindBergeCycle returns a Berge cycle of h, or nil if h is Berge-acyclic.
//
// The incidence graph of h has a vertex per node and per edge and connects
// e to each of its nodes; cycles of that graph alternate node/edge vertices
// and are exactly Berge cycles. The search is a DFS forest over the
// incidence structure; the first back edge closes a cycle.
func (h *Hypergraph) FindBergeCycle() *BergeCycle {
	n, m := h.N(), h.M()
	// Incidence adjacency: vertex v<n is node v; vertex n+i is edge i.
	edgesOf := h.incidence()
	parent := make([]int, n+m) // DFS tree parent in incidence graph
	state := make([]int, n+m)  // 0 unvisited, 1 on stack, 2 done
	for i := range parent {
		parent[i] = -1
	}
	var cycleAt []int // incidence vertices of found cycle
	var dfs func(u, from int) bool
	dfs = func(u, from int) bool {
		state[u] = 1
		parent[u] = from
		if u < n {
			for _, i := range edgesOf[u] {
				w := n + i
				if w == from {
					continue
				}
				if state[w] == 1 {
					cycleAt = []int{w, u}
					for x := from; x != w && x != -1; x = parent[x] {
						cycleAt = append(cycleAt, x)
					}
					return true
				}
				if state[w] == 0 && dfs(w, u) {
					return true
				}
			}
		} else {
			for _, v := range h.edges[u-n] {
				if v == from {
					continue
				}
				if state[v] == 1 {
					cycleAt = []int{v, u}
					for x := from; x != v && x != -1; x = parent[x] {
						cycleAt = append(cycleAt, x)
					}
					return true
				}
				if state[v] == 0 && dfs(v, u) {
					return true
				}
			}
		}
		state[u] = 2
		return false
	}
	for s := 0; s < n+m; s++ {
		if state[s] == 0 && dfs(s, -1) {
			break
		}
	}
	if cycleAt == nil {
		return nil
	}
	// cycleAt is [closing vertex, u, ..., back to just after closing
	// vertex] in reverse walk order; rotate so it starts at an edge vertex
	// and split into edge/node sequences.
	var bc BergeCycle
	// Find an edge-vertex starting position.
	start := 0
	for i, x := range cycleAt {
		if x >= n {
			start = i
			break
		}
	}
	k := len(cycleAt)
	for i := 0; i < k; i++ {
		x := cycleAt[(start+i)%k]
		if x >= n {
			bc.Edges = append(bc.Edges, x-n)
		} else {
			bc.Nodes = append(bc.Nodes, x)
		}
	}
	return &bc
}

// BetaAcyclic reports whether h is β-acyclic (no β-cycle, Definition 6).
//
// The recognizer eliminates nest points: h is β-acyclic iff repeatedly
// deleting a nest point — a node whose edges form an inclusion chain —
// deletes every node. A nest point stays one when any other node is
// deleted (its edges, cut down alike, still form a chain), so the order of
// deletion does not change where elimination gets stuck, and deleting v can
// only make new nest points among the nodes that share an edge with v.
// betaCore therefore checks each node once, and again only after such a
// neighbour goes; see there for the cost. internal/reference keeps the
// rescan-everything elimination as the oracle the tests compare with.
func (h *Hypergraph) BetaAcyclic() bool {
	return len(h.betaCore()) == 0
}

// betaCore runs nest-point elimination from a worklist and returns the
// nodes it cannot delete, in increasing order: nil when h is β-acyclic.
// Nodes in no edge take no part.
//
// Each edge is a sorted row of its surviving nodes, cut in place as nodes
// go. A check of v sorts v's edges by row length and tests neighbouring
// rows for inclusion, O(Σ|e|) over those edges; deleting v costs O(|e|)
// per edge at v. On sparse schemes, where each node meets few edges of
// bounded size, the whole elimination is near-linear in Σ|e|, and memory
// is O(Σ|e|).
func (h *Hypergraph) betaCore() []int {
	edgesOf := h.incidence()
	rows := make([]intset.Set, len(h.edges))
	flat := make([]int, 0, h.Size())
	for i, e := range h.edges {
		off := len(flat)
		flat = append(flat, e...)
		rows[i] = flat[off:len(flat):len(flat)]
	}
	const (
		idle = iota
		queued
		deleted
	)
	state := make([]uint8, h.N())
	work := make([]int, 0, h.N())
	for v := h.N() - 1; v >= 0; v-- {
		if len(edgesOf[v]) > 0 {
			state[v] = queued
			work = append(work, v)
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		state[v] = idle
		if !nestPoint(rows, edgesOf[v]) {
			continue
		}
		state[v] = deleted
		for _, e := range edgesOf[v] {
			row := rows[e]
			i := sort.SearchInts(row, v)
			rows[e] = append(row[:i], row[i+1:]...)
			for _, u := range rows[e] {
				if state[u] == idle {
					state[u] = queued
					work = append(work, u)
				}
			}
		}
	}
	var core []int
	for v, s := range state {
		if len(edgesOf[v]) > 0 && s != deleted {
			core = append(core, v)
		}
	}
	return core
}

// nestPoint reports whether the given rows — those of the edges at one
// node — form an inclusion chain. It sorts edges by row length in place;
// rows of equal length in a chain are equal, so consecutive inclusions
// decide it.
func nestPoint(rows []intset.Set, edges []int) bool {
	slices.SortFunc(edges, func(a, b int) int { return len(rows[a]) - len(rows[b]) })
	for i := 1; i < len(edges); i++ {
		if !rows[edges[i-1]].SubsetOf(rows[edges[i]]) {
			return false
		}
	}
	return true
}

// GammaAcyclic reports whether h is γ-acyclic (no γ-cycle, Definition 6).
//
// A γ-cycle is a β-cycle or a 3-edge cycle (e1, e2, e3) whose connecting
// nodes satisfy n1 ∉ e3 and n2 ∉ e1. Hence h is γ-acyclic iff it is
// β-acyclic and has no such "special triangle"; the triangle scan below is
// exact because the three witness nodes are automatically distinct:
// n1 ∈ e1∩e2∖e3 and n2 ∈ e2∩e3∖e1 and n3 ∈ e3∩e1 are pairwise separated by
// the excluded edges.
func (h *Hypergraph) GammaAcyclic() bool {
	return h.BetaAcyclic() && h.FindGammaTriangle() == nil
}

// GammaTriangle is a special-triangle witness for γ-cyclicity.
type GammaTriangle struct {
	E1, E2, E3 int // edge indices, (e1, e2, e3) as in Definition 6
	N1, N2, N3 int // n1 ∈ e1∩e2∖e3, n2 ∈ e2∩e3∖e1, n3 ∈ e3∩e1
}

// FindGammaTriangle returns a special triangle of h, or nil if none exists.
//
// The conditions are symmetric under swapping e1 and e3, so the scan fixes
// e1 < e3. The three edges of a special triangle meet pairwise, so e3 and
// e2 range only over the edges that share a node with e1, listed from the
// node→edge incidence lists. The witness is the first in (e1, e3, e2)
// order, with the lowest node of each intersection — the one a scan of all
// triples finds. The cost is Σ over e1 of |meets(e1)|² merge tests:
// near-linear when each edge meets few others, O(m³) only when most edges
// meet.
func (h *Hypergraph) FindGammaTriangle() *GammaTriangle {
	edgesOf := h.incidence()
	listed := make([]int, h.M()) // listed[e] == a+1 once e is in meets
	var meets []int
	for a, ea := range h.edges {
		meets = meets[:0]
		for _, v := range ea {
			for _, e := range edgesOf[v] {
				if e != a && listed[e] != a+1 {
					listed[e] = a + 1
					meets = append(meets, e)
				}
			}
		}
		slices.Sort(meets)
		for _, c := range meets {
			if c < a {
				continue
			}
			ec := h.edges[c]
			for _, b := range meets {
				if b == c {
					continue
				}
				eb := h.edges[b]
				n1, ok := firstInterDiff(ea, eb, ec)
				if !ok {
					continue
				}
				n2, ok := firstInterDiff(eb, ec, ea)
				if !ok {
					continue
				}
				n3, _ := firstInterDiff(ea, ec, nil)
				return &GammaTriangle{E1: a, E2: b, E3: c, N1: n1, N2: n2, N3: n3}
			}
		}
	}
	return nil
}

// firstInterDiff returns the lowest node of x∩y∖z, without allocating.
func firstInterDiff(x, y, z intset.Set) (int, bool) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			v := x[i]
			for k < len(z) && z[k] < v {
				k++
			}
			if k == len(z) || z[k] != v {
				return v, true
			}
			i++
			j++
		}
	}
	return 0, false
}
