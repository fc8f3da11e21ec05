package sim_test

// Whole-run digests: every cell below must produce Metrics whose digest
// equals the one recorded in testdata/digests/<test>.txt. The digests
// were recorded when the hierarchy still had a second, scalar walk and
// every one of these cells produced identical Metrics on both, so they
// are the scalar walk's results: what the mem package's reference walk
// pins reference by reference, these pin for whole runs — the
// reference mix, way reservations, COBRA's NoPartition inserts,
// recycled machines, NUCA timing, sharding over 4 cores, and ablation
// A2's TrueLRU and Random LLCs. A mismatch prints the cell's full
// Metrics. (The tests keep the names they had when they ran each cell
// on both walks.) Intended model changes regenerate the files with
//
//	go test ./internal/sim -run 'Match(es)?Scalar' -update

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cobra/internal/cache"
	"cobra/internal/exp"
	"cobra/internal/mem"
	"cobra/internal/sim"
	"cobra/internal/simtest"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests with current outputs")

// digest is a short hash of every Metrics field.
func digest(t *testing.T, m sim.Metrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// checkDigests compares each cell's Metrics against the digests
// recorded for the calling test, or records them under -update.
func checkDigests(t *testing.T, got map[string]sim.Metrics) {
	t.Helper()
	path := filepath.Join("testdata", "digests", t.Name()+".txt")
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateDigests {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, digest(t, got[name]))
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", path, len(names))
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("reading digests (regenerate with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, d, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		want[name] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s records %d cells, the test ran %d", path, len(want), len(got))
	}
	for _, name := range names {
		if d := digest(t, got[name]); d != want[name] {
			t.Errorf("%s: Metrics digest %s, recorded %q\nMetrics: %+v", name, d, want[name], got[name])
		}
	}
}

// runAll executes every scheme (including the COBRA variants with
// distinctive machinery: coalescing, bin regrouping, no-partition, and
// Figure 13's eviction-buffer, way-reservation and context-switch
// knobs) and returns the metrics keyed by a descriptive name.
func runAll(t *testing.T, arch sim.Arch) map[string]sim.Metrics {
	t.Helper()
	out := map[string]sim.Metrics{}
	for _, dist := range simtest.Dists() {
		app, _ := simtest.CountAppDist(dist, 1<<13, 30000, 77)
		base, err := sim.RunBaseline(app, arch)
		if err != nil {
			t.Fatal(err)
		}
		out["base/"+dist.String()] = base
		pb, err := sim.RunPBSW(app, 64, arch)
		if err != nil {
			t.Fatal(err)
		}
		out["pbsw/"+dist.String()] = pb
		cob, err := sim.RunCOBRA(app, sim.CobraOpt{}, arch)
		if err != nil {
			t.Fatal(err)
		}
		out["cobra/"+dist.String()] = cob
	}
	app, _ := simtest.CountApp(1<<13, 30000, 78)
	comm, err := sim.RunCOBRA(app, sim.CobraOpt{Coalesce: true}, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["cobra-comm"] = comm
	regroup, err := sim.RunCOBRA(app, sim.CobraOpt{MaxLLCBufs: 16}, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["cobra-regroup"] = regroup
	nopart, err := sim.RunCOBRA(app, sim.CobraOpt{NoPartition: true, SkipAccum: true}, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["cobra-nopart"] = nopart
	for name, opt := range map[string]sim.CobraOpt{
		"cobra-evict2":   {EvictBufL1L2: 2, SkipAccum: true},
		"cobra-rsv":      {ReserveL1: 6, ReserveL2: 1, ReserveLLC: 15},
		"cobra-quantum":  {CtxSwitchQuantum: 26_600},
		"cobracomm-rsv2": {Coalesce: true, ReserveL2: 2, CtxSwitchQuantum: 266_000},
	} {
		m, err := sim.RunCOBRA(app, opt, arch)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = m
	}
	phi, err := sim.RunPHI(app, 64, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["phi"] = phi
	return out
}

// TestBatchedPipelineMatchesScalar pins every scheme of runAll on 1 and
// 4 cores.
func TestBatchedPipelineMatchesScalar(t *testing.T) {
	got := map[string]sim.Metrics{}
	for _, cores := range []int{1, 4} {
		for name, m := range runAll(t, sim.DefaultArch().WithCores(cores)) {
			got[fmt.Sprintf("%s/cores=%d", name, cores)] = m
		}
	}
	checkDigests(t, got)
}

// TestBatchedPipelineMatchesScalarNUCA pins each scheme with NUCA hop
// latencies enabled (the one place LLC/DRAM load timing depends on the
// address).
func TestBatchedPipelineMatchesScalarNUCA(t *testing.T) {
	arch := sim.DefaultArch()
	arch.Mem.NUCA = mem.DefaultNUCA()
	app, _ := simtest.CountApp(1<<13, 30000, 79)
	runs := map[string]func(sim.Arch) (sim.Metrics, error){
		"base":  func(a sim.Arch) (sim.Metrics, error) { return sim.RunBaseline(app, a) },
		"pbsw":  func(a sim.Arch) (sim.Metrics, error) { return sim.RunPBSW(app, 64, a) },
		"cobra": func(a sim.Arch) (sim.Metrics, error) { return sim.RunCOBRA(app, sim.CobraOpt{}, a) },
		"phi":   func(a sim.Arch) (sim.Metrics, error) { return sim.RunPHI(app, 64, a) },
	}
	got := map[string]sim.Metrics{}
	for scheme, run := range runs {
		m, err := run(arch)
		if err != nil {
			t.Fatal(err)
		}
		got[scheme] = m
	}
	checkDigests(t, got)
}

// figureCell is one simulation cell of Figure 10 or Table I.
type figureCell struct {
	app, input string
	scheme     sim.Scheme
	bins       int
}

// figureCells enumerates the cells Figure 10 (every suite pair's
// Baseline, PB-SW bin sweep and COBRA) and Table I (Neighbor-Populate
// PB-SW at 64 and 4096 bins) run, with the apps they run on.
func figureCells(t *testing.T, scale int, seed uint64) ([]figureCell, map[string]*sim.App) {
	t.Helper()
	apps := map[string]*sim.App{}
	build := func(app, input string) *sim.App {
		key := app + "/" + input
		if apps[key] == nil {
			a, err := exp.BuildApp(app, input, scale, seed)
			if err != nil {
				t.Fatal(err)
			}
			apps[key] = a
		}
		return apps[key]
	}
	var cells []figureCell
	for _, p := range exp.DefaultSuite() {
		app := build(p.App, p.Input)
		cells = append(cells, figureCell{p.App, p.Input, sim.SchemeBaseline, 0})
		swept := false
		for _, b := range exp.BinSweep {
			if b > app.NumKeys {
				break
			}
			cells = append(cells, figureCell{p.App, p.Input, sim.SchemePBSW, b})
			swept = true
		}
		if !swept {
			cells = append(cells, figureCell{p.App, p.Input, sim.SchemePBSW, 1})
		}
		cells = append(cells, figureCell{p.App, p.Input, sim.SchemeCOBRA, 0})
	}
	build("NeighborPopulate", "KRON")
	for _, b := range []int{64, 4096} {
		cells = append(cells, figureCell{"NeighborPopulate", "KRON", sim.SchemePBSW, b})
	}
	return cells, apps
}

// TestFigureCellsMatchScalar pins the workloads the headline artifacts are
// built from: every Figure 10 and Table I cell at scale 12, on 1 and 4
// cores, so the figure tables derived from them stay byte-identical.
func TestFigureCellsMatchScalar(t *testing.T) {
	cells, apps := figureCells(t, 12, 42)
	got := map[string]sim.Metrics{}
	for _, cores := range []int{1, 4} {
		arch := sim.DefaultArch().WithCores(cores)
		for _, c := range cells {
			name := fmt.Sprintf("%s/%s/%s/bins=%d/cores=%d", c.app, c.input, c.scheme, c.bins, cores)
			m, err := exp.RunScheme(apps[c.app+"/"+c.input], c.scheme, c.bins, arch)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name] = m
		}
	}
	checkDigests(t, got)
}

// TestAblationA2MatchesScalar pins ablation A2's cells — the
// DegreeCount/URND baseline at scale 12 under each LLC policy — and
// runAll on one core under the TrueLRU and Random LLCs, whose ways
// COBRA reserves too.
func TestAblationA2MatchesScalar(t *testing.T) {
	app, err := exp.BuildApp("DegreeCount", "URND", 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]sim.Metrics{}
	for _, p := range []cache.PolicyKind{cache.DRRIP, cache.TrueLRU, cache.Random} {
		arch := sim.DefaultArch()
		arch.Mem.LLC.Policy = p
		m, err := exp.RunScheme(app, sim.SchemeBaseline, 0, arch)
		if err != nil {
			t.Fatal(err)
		}
		got["a2/"+p.String()] = m
		if p == cache.DRRIP {
			continue
		}
		for name, m := range runAll(t, arch) {
			got[p.String()+"/"+name] = m
		}
	}
	checkDigests(t, got)
}
