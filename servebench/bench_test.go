package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/intset"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7)
		other, _ := newWorkload(name, 8)
		if !reflect.DeepEqual(a.warm, b.warm) {
			t.Errorf("%s: warm set differs for one seed", name)
		}
		differs := false
		for i := 0; i < 2000; i++ {
			ra, _ := a.next(i)
			rb, _ := b.next(i)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("%s: request %d differs for one seed: %v vs %v", name, i, ra, rb)
			}
			ro, _ := other.next(i)
			differs = differs || !reflect.DeepEqual(ra, ro)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
}

func TestMissChurnNeverRepeatsAKey(t *testing.T) {
	w, err := newWorkload("miss-churn", 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	add := func(terms []int) {
		if len(terms) < churnMinTerms || len(terms) > churnMaxTerms || !slices.IsSorted(terms) {
			t.Fatalf("malformed terminal set %v", terms)
		}
		k := intset.FromSlice(terms).Key()
		if len(intset.FromSlice(terms)) != len(terms) {
			t.Fatalf("duplicate terminal in %v", terms)
		}
		if seen[k] {
			t.Fatalf("key %s repeated", k)
		}
		seen[k] = true
	}
	for _, q := range w.warm {
		add(q.terminals)
	}
	// Well past what one run at ten times the measured rate sends.
	for i := 0; i < 300_000; i++ {
		r, ok := w.next(i)
		if !ok {
			t.Fatalf("key space exhausted at request %d", i)
		}
		add(r.queries[0])
	}
}

func TestSubsetSpaceIsABijection(t *testing.T) {
	s := newSubsetSpace(9, 2, 4, 5)
	if want := binom(9, 2) + binom(9, 3) + binom(9, 4); s.total != want {
		t.Fatalf("total %d, want %d", s.total, want)
	}
	seen := map[string]bool{}
	for i := uint64(0); i < s.total; i++ {
		set := s.at(i)
		for _, v := range set {
			if v < 0 || v >= 9 {
				t.Fatalf("element %d out of range in %v", v, set)
			}
		}
		seen[intset.FromSlice(set).Key()] = true
	}
	if uint64(len(seen)) != s.total {
		t.Fatalf("%d distinct sets from %d indices", len(seen), s.total)
	}
}

func TestExactQuantile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		q            float64
		value        float64
		beyond, size int
	}{
		{0.50, 50, 50, 100},
		{0.99, 99, 1, 100},
		{1, 100, 0, 100},
		{0.001, 1, 99, 100},
	} {
		got := exactQuantile(xs, c.q)
		if got != (quantile{Value: c.value, N: c.size, Beyond: c.beyond}) {
			t.Errorf("q%.3f = %+v, want value %v beyond %d", c.q, got, c.value, c.beyond)
		}
	}
	// Ties at the quantile are not beyond it.
	if got := exactQuantile([]float64{1, 2, 2, 2, 3}, 0.5); got != (quantile{2, 5, 1}) {
		t.Errorf("tied median = %+v", got)
	}
	if got := exactQuantile(nil, 0.5); got != (quantile{}) {
		t.Errorf("empty sample = %+v", got)
	}
	// sample.q sorts a copy and leaves the caller's order alone.
	s := sample{3, 1, 2}
	if got := s.q(0.5).Value; got != 2 || s[0] != 3 {
		t.Errorf("sample.q = %v, sample now %v", got, s)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		children []interval
		want     int64
	}{
		{nil, 100},
		{[]interval{{10, 20}, {30, 50}}, 70},
		{[]interval{{10, 40}, {20, 30}, {35, 60}}, 50}, // overlapping workers
		{[]interval{{-10, 10}, {90, 120}}, 80},         // clipped to the parent
		{[]interval{{0, 100}, {10, 20}}, 0},            // fully covered
		{[]interval{{200, 300}}, 100},                  // outside
		{[]interval{{50, 60}, {10, 20}, {15, 55}}, 50}, // unsorted
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime(%v) = %d, want %d", c.children, got, c.want)
		}
	}
}

func TestLayerArithmetic(t *testing.T) {
	r := reqTimes{client: 100, handler: 80, core: 50, cache: 10, steiner: 30}
	if got, want := r.selfTimes(), [5]int64{20, 30, 10, 10, 30}; got != want {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	var sum int64
	for _, s := range r.selfTimes() {
		sum += s
	}
	if sum != r.client {
		t.Fatalf("self times sum to %d, not the wall time %d", sum, r.client)
	}
	if g := layerSumGapPct([]reqTimes{r}); g != 0 {
		t.Errorf("consistent layers: gap %v, want 0", g)
	}
	// A replayed core slower than its live handler over-accounts by the
	// excess: handler 80, core 90 → httpd self clamps to 0, +10 of 100.
	slow := reqTimes{client: 100, handler: 80, core: 90, cache: 10, steiner: 30}
	if g := layerSumGapPct([]reqTimes{slow}); g != 10 {
		t.Errorf("slow replay: gap %v, want 10", g)
	}
}

func TestWindows(t *testing.T) {
	w, err := newWorkload("solve-batch", 5)
	if err != nil {
		t.Fatal(err)
	}
	// Marks at ids 64, 96, 160 and 192: the 96→160 gap is two windows
	// (a mark was lost), so it is skipped rather than counted as one.
	per := float64(w.window * batchSize)
	r := loopResult{marks: []mark{
		{id: 2 * w.window, at: time.Second, cpu: 0},
		{id: 3 * w.window, at: 2 * time.Second, cpu: 2 * time.Second},
		{id: 5 * w.window, at: 5 * time.Second, cpu: 6 * time.Second},
		{id: 6 * w.window, at: 5*time.Second + 500*time.Millisecond, cpu: 7 * time.Second},
	}}
	qps, cpuUS := r.windows(w)
	if want := []float64{per, 2 * per}; !slices.Equal(qps, want) {
		t.Errorf("qps = %v, want %v", qps, want)
	}
	if want := []float64{2e6 / per, 1e6 / per}; !slices.Equal(cpuUS, want) {
		t.Errorf("cpu µs/query = %v, want %v", cpuUS, want)
	}
	// Every solve-batch window is one cycle of the pool: the same batches.
	count := func(from int) map[string]int {
		m := map[string]int{}
		for i := from; i < from+w.window; i++ {
			req, _ := w.next(i)
			m[fmt.Sprint(req.scheme, req.queries)]++
		}
		return m
	}
	if !reflect.DeepEqual(count(0), count(7*w.window)) {
		t.Error("two solve-batch windows hold different work")
	}
}

// TestSpecMatchesBenchmarkJSON keeps the checked-in BENCHMARK.json equal
// to the definition in spec.go and inside the limits it must respect.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), onDisk) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `servebench -spec > BENCHMARK.json`")
	}
	s := spec()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("bad workload %+v", w)
		}
		seen[w.Name] = true
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] ||
			(m.Better != "higher" && m.Better != "lower") {
			t.Errorf("bad metric %+v", m)
		}
		seen[m.Name] = true
	}
}
