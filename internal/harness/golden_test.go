package harness

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goldenScale is the fixed scale the reproduction goldens run at: small
// enough for every test run, large enough that UDDSketch collapses and
// the stores reach their steady-state sizes.
const goldenScale = 0.1

// goldenExperiments names each golden experiment and the table headers
// whose cells are timings. Those cells depend on the host, so they are
// masked; every other cell (space, counts, accuracy) must match the
// committed testdata byte for byte.
var goldenExperiments = []struct {
	id     string
	timing []string
}{
	{"table3", nil},
	{"ablation-uddstore", []string{"insert/op", "merge/op", "8-quantile query"}},
	{"fig6", nil},
	{"fig7", nil},
	{"ablation-hra", nil},
	{"related", []string{"insert/op"}},
}

// TestReproductionGolden runs each golden experiment at goldenScale and
// compares its rendered tables, timing cells masked, against
// testdata/golden/<id>.txt. A change that moves a space or count column
// must re-bless the file on purpose:
//
//	UPDATE_GOLDEN=1 go test ./internal/harness -run TestReproductionGolden
func TestReproductionGolden(t *testing.T) {
	for _, g := range goldenExperiments {
		t.Run(g.id, func(t *testing.T) {
			e, ok := Get(g.id)
			if !ok {
				t.Fatalf("experiment %q is not registered", g.id)
			}
			tables, err := e.Run(DefaultOptions(goldenScale))
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, tbl := range tables {
				for i, h := range tbl.Headers {
					if !slices.Contains(g.timing, h) {
						continue
					}
					for _, row := range tbl.Rows {
						row[i] = "(timing)"
					}
				}
				b.WriteString(tbl.Render())
				b.WriteString("\n")
			}
			got := b.String()
			path := filepath.Join("testdata", "golden", g.id+".txt")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (set UPDATE_GOLDEN=1 to write it)", err)
			}
			if got != string(want) {
				t.Errorf("%s at scale %v differs from %s:\ngot:\n%s\nwant:\n%s", g.id, goldenScale, path, got, want)
			}
		})
	}
}
