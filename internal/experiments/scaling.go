package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/gen"
)

// EScaling (E-SCALE) measures the polynomial recognizers of Section 2 on
// growing inputs: wall time per classification across sizes, up to ~3.8k
// nodes. The verdict asserts the *shape* — doubling the input must not
// blow the time up by ×8 or more per doubling. The near-linear recognizers
// meet that with a wide margin; a cubic scan sits on the bound and an
// exponential one fails quickly.
func EScaling(ctx context.Context) Table {
	t := Table{
		ID:     "E-SCALE",
		Title:  "Recognizer scaling: full classification time vs graph size",
		Header: []string{"|V|", "|A|", "time per Classify", "growth", "verdict"},
	}
	r := rand.New(rand.NewSource(41))
	sizes := []int{10, 20, 40, 80, 160, 320, 640, 1280}
	schemes := make([]*bipartite.Graph, len(sizes))
	for i, m := range sizes {
		schemes[i] = bipartite.FromHypergraph(gen.GammaAcyclic(r, m, 3, 3)).B
	}
	// 25 rounds over all sizes, keeping each size's fastest run: a GC pause
	// or a burst of load from other processes (go test runs packages in
	// parallel) then lands in some runs of every size, not in all runs of
	// one, and does not show as growth. The rounds take ~0.3 s in all.
	best := make([]time.Duration, len(sizes))
	for i := range best {
		best[i] = time.Duration(math.MaxInt64)
	}
	for round := 0; round < 25; round++ {
		for i, b := range schemes {
			start := time.Now()
			chordality.Classify(b)
			best[i] = min(best[i], time.Since(start))
		}
	}
	for i, b := range schemes {
		el := best[i]
		growth := "-"
		ok := true
		if i > 0 {
			f := float64(el) / float64(best[i-1])
			growth = fmt.Sprintf("x%.1f", f)
			ok = f < 8
		}
		t.Rows = append(t.Rows, []string{
			itoa(b.N()), itoa(b.M()),
			el.Round(time.Microsecond).String(), growth, verdict(ok),
		})
	}
	t.Notes = append(t.Notes,
		"these schemes are α-acyclic, so conformality is decided by GYO, not Gilmore's O(m⁴) triple scan, and β-acyclicity by worklist nest-point elimination; growth per size doubling stays between about x1 and x4, around the linear rate of x2 (each time is the fastest of 25 runs, interleaved across sizes). The former scans grew x4.6–x4.8 per doubling by 250 nodes and about x7 beyond")
	return t
}
