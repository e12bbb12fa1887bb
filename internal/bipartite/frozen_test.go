package bipartite_test

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestFrozenMirrorsBipartite(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		b := gen.RandomBipartite(r, 3+r.Intn(12), 3+r.Intn(12), 0.3)
		f := b.Freeze()
		if f.N() != b.N() || f.M() != b.M() {
			t.Fatalf("size mismatch")
		}
		for v := 0; v < b.N(); v++ {
			if f.Side(v) != b.Side(v) {
				t.Fatalf("side mismatch at %d", v)
			}
		}
		v1, v2 := b.V1(), b.V2()
		if len(f.V1()) != len(v1) || len(f.V2()) != len(v2) {
			t.Fatalf("partition size mismatch")
		}
		for i, v := range f.V1() {
			if v != v1[i] {
				t.Fatalf("V1[%d] mismatch", i)
			}
		}
		for i, v := range f.V2() {
			if v != v2[i] {
				t.Fatalf("V2[%d] mismatch", i)
			}
		}
		if f.N() != b.N() || f.M() != b.M() {
			t.Fatalf("size mismatch")
		}
	}
}

func TestFrozenHypergraphsMatchMutable(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		b := gen.RandomBipartite(r, 2+r.Intn(10), 2+r.Intn(10), 0.35)
		f := b.Freeze()

		for _, tc := range []struct {
			name            string
			mutable, frozen bipartite.Correspondence
		}{
			{"H1", b.HypergraphV1(), f.HypergraphV1()},
			{"H2", b.HypergraphV2(), f.HypergraphV2()},
		} {
			if !tc.mutable.H.Equal(tc.frozen.H) {
				t.Fatalf("%s: frozen hypergraph differs:\n%v\n%v", tc.name, tc.mutable.H, tc.frozen.H)
			}
			if len(tc.mutable.EdgeToV2) != len(tc.frozen.EdgeToV2) {
				t.Fatalf("%s: EdgeToV2 length mismatch", tc.name)
			}
			for i := range tc.mutable.EdgeToV2 {
				if tc.mutable.EdgeToV2[i] != tc.frozen.EdgeToV2[i] {
					t.Fatalf("%s: EdgeToV2[%d] mismatch", tc.name, i)
				}
			}
			for i := range tc.mutable.NodeToV1 {
				if tc.mutable.NodeToV1[i] != tc.frozen.NodeToV1[i] {
					t.Fatalf("%s: NodeToV1[%d] mismatch", tc.name, i)
				}
			}
		}
	}
}

func TestFrozenHypergraphAliveMatchesInduced(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		b := gen.RandomConnectedBipartite(r, 3+r.Intn(8), 3+r.Intn(8), 0.3)
		f := b.Freeze()
		// Restrict to a random connected-ish subset containing node 0.
		alive := graph.NewBits(b.N())
		var keep []int
		for v := 0; v < b.N(); v++ {
			if r.Float64() < 0.75 || v == 0 {
				alive.Set(v)
				keep = append(keep, v)
			}
		}
		sub, _ := b.Induced(keep)
		want := sub.HypergraphV1().H
		got := f.HypergraphV1AliveBits(alive).H
		if !want.Equal(got) {
			t.Fatalf("alive-restricted H1 differs from induced H1:\n%v\n%v", want, got)
		}
	}
}

func TestFrozenIsSnapshot(t *testing.T) {
	b := bipartite.New()
	a := b.AddV1("a")
	r1 := b.AddV2("r1")
	b.AddEdge(a, r1)
	f := b.Freeze()
	r2 := b.AddV2("r2")
	b.AddEdge(a, r2)
	if f.N() != 2 || f.M() != 1 {
		t.Fatal("frozen bipartite view changed after mutation")
	}
	if f.Side(a) != graph.Side1 || f.Side(r1) != graph.Side2 {
		t.Fatal("sides wrong in snapshot")
	}
}
