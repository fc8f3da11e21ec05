package exp

// Golden-snapshot regression test for the simulator's numeric outputs.
// Every execution scheme runs a fixed s12 workload at 1 and 16 cores,
// and the full Metrics structs must match the checked-in JSON byte for
// byte. Any timing-model change — intended or not — shows up as a
// golden diff; intended changes regenerate with
//
//	go test ./internal/exp -run TestGoldenMetrics -update
//
// and the diff is reviewed like any other source change. One-core and
// sixteen-core runs go through the same per-scheme runner, so a change
// to the runners that is meant to be behaviour-preserving must leave
// both row sets untouched.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cobra/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshot files with current outputs")

const goldenPath = "testdata/golden_s12.json"

// goldenRow is one (scheme, cores) cell of the snapshot.
type goldenRow struct {
	Scheme  string      `json:"scheme"`
	Cores   int         `json:"cores"`
	Metrics sim.Metrics `json:"metrics"`
}

func TestGoldenMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("golden snapshot skipped in -short mode")
	}
	const (
		appName = "DegreeCount"
		input   = "URND"
		scale   = 12
		seed    = 42
		bins    = 256 // fixed so PB-SW and PHI skip the sweep
	)
	app, err := BuildApp(appName, input, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	for _, name := range SchemeNames() {
		for _, cores := range []int{1, 16} {
			arch := sim.DefaultArch().WithCores(cores)
			m, err := RunScheme(app, sim.Scheme(name), bins, arch)
			if err != nil {
				t.Fatalf("%s cores=%d: %v", name, cores, err)
			}
			rows = append(rows, goldenRow{Scheme: name, Cores: cores, Metrics: m})
		}
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d rows)", goldenPath, len(rows))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("metrics diverge from golden snapshot %s\n%s\n(regenerate with -update only for intended timing-model changes)",
			goldenPath, goldenDiff(want, got))
	}
}

// goldenDiff names the first diverging golden row and line so the
// failure is actionable without an external diff tool.
func goldenDiff(want, got []byte) string {
	var w, g []goldenRow
	if json.Unmarshal(want, &w) == nil && json.Unmarshal(got, &g) == nil && len(w) == len(g) {
		for i := range w {
			if w[i].Metrics != g[i].Metrics || w[i].Scheme != g[i].Scheme || w[i].Cores != g[i].Cores {
				return fmt.Sprintf("first diverging row: %s cores=%d\nwant %+v\ngot  %+v",
					w[i].Scheme, w[i].Cores, w[i].Metrics, g[i].Metrics)
			}
		}
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first diverging line %d:\nwant %s\ngot  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d bytes, got %d bytes", len(want), len(got))
}
