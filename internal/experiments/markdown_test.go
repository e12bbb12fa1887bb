package experiments

import (
	"context"
	"os"
	"strings"
	"testing"
)

// wallClockColumns names, per table, the columns derived from wall-clock
// time. They differ from run to run, so the EXPERIMENTS.md check masks
// them; every other cell must match byte for byte.
var wallClockColumns = map[string][]string{
	"E-T2":    {"exact time", "algorithm-1 time"},
	"E-T4":    {"time", "ns/(V*A)"},
	"E-SCALE": {"time per Classify", "growth"},
}

// maskWallClock replaces the cells of the wallClockColumns in a markdown
// rendering of the tables with "~". Cells are split on the " | " that
// Table.Markdown joins them with, which also keeps headers such as "|V|"
// intact.
func maskWallClock(md string) string {
	lines := strings.Split(md, "\n")
	var cols []string       // masked column names of the current table
	var masked map[int]bool // their indices, once the header row is seen
	for i, line := range lines {
		if title, ok := strings.CutPrefix(line, "### "); ok {
			id, _, _ := strings.Cut(title, " ")
			cols, masked = wallClockColumns[id], nil
			continue
		}
		if len(cols) == 0 || !strings.HasPrefix(line, "| ") || !strings.HasSuffix(line, " |") {
			continue
		}
		cells := strings.Split(line[2:len(line)-2], " | ")
		if masked == nil {
			masked = map[int]bool{}
			for j, h := range cells {
				for _, c := range cols {
					if h == c {
						masked[j] = true
					}
				}
			}
			continue
		}
		for j := range cells {
			if masked[j] {
				cells[j] = "~"
			}
		}
		lines[i] = "| " + strings.Join(cells, " | ") + " |"
	}
	return strings.Join(lines, "\n")
}

// TestExperimentsMarkdownIsCurrent renders every experiment as markdown,
// as cmd/experiments -markdown does, and holds EXPERIMENTS.md to it byte
// for byte outside the wall-clock columns.
func TestExperimentsMarkdownIsCurrent(t *testing.T) {
	var sb strings.Builder
	for _, e := range All() {
		sb.WriteString(e.Run(context.Background()).Markdown())
	}
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(maskWallClock(sb.String()), "\n")
	want := strings.Split(maskWallClock(string(data)), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("EXPERIMENTS.md line %d is stale (regenerate with go run ./cmd/experiments -markdown):\n rendered %q\n file     %q", i+1, g, w)
		}
	}
}
