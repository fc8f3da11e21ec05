package exp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"cobra/internal/obsv"
	"cobra/internal/sim"
)

// tinyOpts keeps unit-test simulations fast.
func tinyOpts() Opts { return Opts{Scale: 12, Seed: 7, Arch: sim.DefaultArch()} }

func TestBuildAppAllPairs(t *testing.T) {
	for _, p := range DefaultSuite() {
		app, err := BuildApp(p.App, p.Input, 10, 1)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := app.Validate(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
}

func TestBuildAppErrors(t *testing.T) {
	if _, err := BuildApp("NoSuchApp", "URND", 10, 1); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := BuildApp("DegreeCount", "NoSuchInput", 10, 1); err == nil {
		t.Fatal("unknown input accepted")
	}
	if _, err := BuildApp("IntSort", "KRONX", 10, 1); err == nil {
		t.Fatal("unknown IntSort input accepted")
	}
	if _, err := BuildApp("SpMV", "NoSuchMatrix", 10, 1); err == nil {
		t.Fatal("unknown matrix input accepted")
	}
	// Error messages must name the valid sets — they travel to CLI
	// stderr and service 400 bodies verbatim.
	_, err := BuildApp("NoSuchApp", "URND", 10, 1)
	if err == nil || !strings.Contains(err.Error(), "DegreeCount") {
		t.Fatalf("unknown-app error does not name valid apps: %v", err)
	}
}

func TestBuildAppScaleOutOfRange(t *testing.T) {
	for _, scale := range []int{-1, 0, MinScale - 1, MaxScale + 1, 1 << 20} {
		if _, err := BuildApp("DegreeCount", "URND", scale, 1); err == nil {
			t.Errorf("scale %d accepted, want range error", scale)
		} else if !strings.Contains(err.Error(), "out of range") {
			t.Errorf("scale %d: error %q does not mention the range", scale, err)
		}
	}
	// Both bounds are inclusive and must build.
	for _, scale := range []int{MinScale, 12} {
		if _, err := BuildApp("DegreeCount", "URND", scale, 1); err != nil {
			t.Errorf("scale %d rejected: %v", scale, err)
		}
	}
}

func TestValidAppAndInput(t *testing.T) {
	for _, app := range AppNames() {
		if err := ValidApp(app); err != nil {
			t.Errorf("ValidApp(%q): %v", app, err)
		}
	}
	if err := ValidApp("NoSuchApp"); err == nil {
		t.Error("ValidApp accepted an unknown app")
	}
	for _, in := range InputNames() {
		if err := ValidInput(in); err != nil {
			t.Errorf("ValidInput(%q): %v", in, err)
		}
	}
	if err := ValidInput("NoSuchInput"); err == nil {
		t.Error("ValidInput accepted an unknown input")
	}
}

// TestParseScheme pins the scheme names exp accepts: every canonical
// name parses strictly, and RunScheme refuses anything else, listing
// the valid set, before it simulates.
func TestParseScheme(t *testing.T) {
	for _, id := range sim.SchemeIDs() {
		name := id.String()
		got, err := sim.ParseSchemeID(name)
		if err != nil || got.String() != name {
			t.Errorf("ParseSchemeID(%q) = %v, %v", name, got, err)
		}
	}
	app, err := BuildApp("DegreeCount", "URND", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "baseline", "pb-sw", "COBRA ", "Fastest"} {
		if m, err := RunScheme(app, sim.Scheme(bad), 16, sim.DefaultArch()); err == nil {
			t.Errorf("RunScheme(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "PB-SW-IDEAL") {
			t.Errorf("RunScheme(%q) error does not list valid schemes: %v", bad, err)
		} else if m.Cycles != 0 {
			t.Errorf("RunScheme(%q) returned non-zero metrics with an error", bad)
		}
	}
}

func TestRunSchemeInvalidName(t *testing.T) {
	app, err := BuildApp("DegreeCount", "URND", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []sim.Scheme{"", "bogus", "baseline"} {
		m, err := RunScheme(app, bad, 16, sim.DefaultArch())
		if err == nil {
			t.Errorf("RunScheme(%q) accepted", bad)
		}
		if m.Cycles != 0 {
			t.Errorf("RunScheme(%q) returned non-zero metrics with an error", bad)
		}
	}
}

func TestAppAndInputNames(t *testing.T) {
	if len(AppNames()) != 11 {
		t.Fatalf("AppNames = %v", AppNames())
	}
	if len(InputNames()) == 0 || len(GraphApps()) != 4 || len(MatrixApps()) != 3 || len(StreamApps()) != 2 {
		t.Fatal("name lists wrong")
	}
}

func TestBestPBSWPicksMinimum(t *testing.T) {
	app, err := BuildApp("DegreeCount", "URND", 13, 3)
	if err != nil {
		t.Fatal(err)
	}
	best, sweep, err := BestPBSWN(app, sim.DefaultArch(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) == 0 {
		t.Fatal("empty sweep")
	}
	for _, m := range sweep {
		if m.Cycles < best.Cycles {
			t.Fatalf("sweep has faster run (%d bins) than best (%d bins)", m.NumBins, best.NumBins)
		}
	}
	ideal := BestIdealPB(sweep)
	if ideal.Cycles > best.Cycles {
		t.Fatal("ideal slower than best PB-SW")
	}
	if BestIdealPB(nil).Cycles != 0 {
		t.Fatal("empty sweep ideal should be zero")
	}
}

// TestRunSweepStopsOnCancel: a bins-0 cell's PB-SW bin sweep runs
// under the runner's context, so a cancelled job (a cobrad deadline)
// starts no sweep cell and fails with ErrInterrupted instead of running
// the whole sweep.
func TestRunSweepStopsOnCancel(t *testing.T) {
	reg := obsv.New()
	defer swapDefault(reg)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Opts{Arch: sim.DefaultArch(), Ctx: ctx}
	spec := RunSpec{App: "DegreeCount", Input: "URND", Scale: 8, Seed: 1,
		Schemes: []sim.SchemeID{sim.SchemeIDPBSW, sim.SchemeIDPHI, sim.SchemeIDPBIdeal}}
	if err := spec.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	for _, id := range spec.Schemes {
		if _, _, err := o.Run("test", spec, id, nil); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s under a cancelled context: err = %v, want ErrInterrupted", id, err)
		}
	}
	if n := reg.Counter("exp.cells.completed").Value() + reg.Counter("exp.cells.failed").Value(); n != 0 {
		t.Fatalf("cancelled sweeps started %d cells, want 0", n)
	}
}

func TestRunSchemeDispatch(t *testing.T) {
	app, err := BuildApp("DegreeCount", "URND", 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	arch := sim.DefaultArch()
	for _, s := range []sim.Scheme{sim.SchemeBaseline, sim.SchemePBSW, sim.SchemePBIdeal, sim.SchemeCOBRA, sim.SchemeComm, sim.SchemePHI} {
		m, err := RunScheme(app, s, 16, arch)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if m.Scheme != s || m.Cycles <= 0 {
			t.Fatalf("%s: bad metrics %+v", s, m)
		}
	}
	if _, err := RunScheme(app, "bogus", 0, arch); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestRunSchemeRejectsCommOnNonCommutative(t *testing.T) {
	app, err := BuildApp("NeighborPopulate", "URND", 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunScheme(app, sim.SchemeComm, 16, sim.DefaultArch()); err == nil {
		t.Fatal("COBRA-COMM ran on NeighborPopulate")
	}
	if _, err := RunScheme(app, sim.SchemePHI, 16, sim.DefaultArch()); err == nil {
		t.Fatal("PHI ran on NeighborPopulate")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "a note")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "a  bb", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	if f2(1.234) != "1.23" || fx(2.5) != "2.50x" || fp(0.5) != "50.0%" {
		t.Fatal("formatters wrong")
	}
	if !strings.Contains(fe(12345.0), "e+04") {
		t.Fatalf("fe = %s", fe(12345.0))
	}
}

// The figure drivers must all run end-to-end at tiny scale. This is the
// regression net for the whole experiment pipeline.
func TestFiguresRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure pipeline test skipped in -short mode")
	}
	o := tinyOpts()
	for name, fn := range map[string]func(Opts) (*Table, error){
		"fig2": Fig2, "fig4": Fig4, "fig5": Fig5, "table1": Table1,
		"fig10": Fig10, "fig11": Fig11, "fig12": Fig12,
		"fig13a": Fig13a, "fig13b": Fig13b, "fig13c": Fig13c, "fig14": Fig14,
		"a1": AblationPrefetcher, "a2": AblationLLCPolicy, "a3": AblationPINV, "a4": AblationMLP, "a5": AblationNoPartition, "a6": AblationNUCA,
	} {
		tab, err := fn(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", name)
		}
	}
}

func TestFig15RunsOnHost(t *testing.T) {
	if testing.Short() {
		t.Skip("host timing test skipped in -short mode")
	}
	tab, err := Fig15(Opts{Scale: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// 2 inputs x 3 schemes.
	if len(tab.Rows) != 6 {
		t.Fatalf("Fig15 rows = %d, want 6", len(tab.Rows))
	}
}

func TestHeadlineShapesInDRAMBoundRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	// The paper's headline ordering — Baseline < PB-SW <= PB-SW-IDEAL
	// and PB-SW < COBRA — must hold for workloads whose irregular
	// working set exceeds the LLC slice (the regime the paper targets;
	// at toy scales where data fits on chip, PB correctly loses).
	// 8 B/16 B-element apps reach that regime at scale 18 already.
	arch := sim.DefaultArch()
	for _, p := range []pair{{"NeighborPopulate", "KRON"}, {"PageRank", "URND"}, {"Transpose", "RAND"}} {
		app, err := BuildApp(p.App, p.Input, 18, 42)
		if err != nil {
			t.Fatal(err)
		}
		base, err := sim.RunBaseline(app, arch)
		if err != nil {
			t.Fatal(err)
		}
		pbsw, err := sim.RunPBSW(app, 1024, arch)
		if err != nil {
			t.Fatal(err)
		}
		cob, err := sim.RunCOBRA(app, sim.CobraOpt{}, arch)
		if err != nil {
			t.Fatal(err)
		}
		if pbsw.Cycles >= base.Cycles {
			t.Errorf("%v: PB-SW (%.3g cyc) not faster than baseline (%.3g)", p, pbsw.Cycles, base.Cycles)
		}
		if cob.Cycles >= pbsw.Cycles {
			t.Errorf("%v: COBRA (%.3g cyc) not faster than PB-SW (%.3g)", p, cob.Cycles, pbsw.Cycles)
		}
		// COBRA cuts Binning instructions vs PB-SW (Figure 12).
		if cob.BinCtr.Instructions >= pbsw.BinCtr.Instructions {
			t.Errorf("%v: COBRA binning instructions not reduced", p)
		}
	}
}
