package exp

import (
	"context"
	"fmt"

	"cobra/internal/obsv"
	"cobra/internal/sim"
	"cobra/internal/stats"
)

// Opts parameterizes a figure regeneration.
type Opts struct {
	Scale int // keys/vertices ~ 2^Scale
	Seed  uint64
	Arch  sim.Arch
	// Parallel bounds the worker pool the figure's independent
	// simulation cells run on: 0 = one worker per CPU (GOMAXPROCS),
	// 1 = serial. Output is byte-identical at any setting.
	Parallel int

	// StreamWindows / StreamWindowUpdates parameterize the streaming
	// figure's window geometry (0: DefaultStreamWindows /
	// DefaultWindowUpdates at the campaign scale).
	StreamWindows       int
	StreamWindowUpdates int

	// Ctx, when non-nil, governs the campaign: cancelling it stops the
	// dispatch of new simulation cells (in-flight cells drain) and the
	// figure returns an ErrInterrupted-wrapping error.
	Ctx context.Context
	// Journal, when non-nil, is the campaign's cell store: every
	// simulation cell is looked up there, computed once and recorded,
	// so a resumed campaign replays completed cells and a repeated cell
	// runs once (see checkpoint.go).
	Journal *Journal
	// Remote, when non-nil, is offered every simulation cell before it
	// runs locally (after the store lookup, so replays stay free). A
	// runner that returns ok=false declines the cell — not expressible
	// remotely, or no worker able to take it — and the cell falls back
	// to the local simulator. Output is byte-identical either way:
	// cells are deterministic functions of their CellKey, and JSON
	// round-trips sim.Metrics exactly (the same argument that makes
	// journal replays exact). internal/dist implements this with a
	// cobrad worker fleet.
	Remote RemoteRunner

	// Progress, when non-nil, receives live completion updates (cell
	// totals as figures declare them, per-cell completions, journal
	// replays) for the -progress line. Nil is a no-op sink.
	Progress *obsv.Progress
	// Events, when non-nil, receives the structured JSONL event stream
	// (cell_done / cell_replay with identity and latency). Nil is a
	// no-op sink.
	Events *obsv.EventLog
}

// RemoteRunner executes simulation cells somewhere other than this
// process (a fleet of cobrad workers). RunCell either runs the cell to
// completion (ok=true, with m or err) or declines it (ok=false) — the
// caller then runs the cell locally. Implementations must return the
// exact metrics the local simulator would produce for k.
type RemoteRunner interface {
	RunCell(ctx context.Context, k CellKey) (m sim.Metrics, ok bool, err error)
}

// workers resolves the pool size for this regeneration.
func (o Opts) workers() int { return Workers(o.Parallel) }

// ctx resolves the campaign context.
func (o Opts) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// mapCells runs a figure's independent cells under o's campaign
// controls: bounded pool, cancellation-with-drain and per-cell panic
// isolation. Every figure driver schedules through this (never raw
// goroutines), so one Ctrl-C drains every figure the same way.
func mapCells[T any](o Opts, n int, cell func(i int) (T, error)) ([]T, error) {
	o.Progress.AddTotal(n)
	return MapCells(o.ctx(), o.Parallel, n, func(_ context.Context, i int) (T, error) {
		v, err := cell(i)
		o.Progress.CellDone()
		return v, err
	})
}

// DefaultOpts returns the standard experiment configuration. Scale 20
// (1 Mi keys) keeps per-core irregular working sets 2–16× the 2 MB LLC
// slice — the DRAM-bound regime the paper's inputs occupy — while
// simulating in minutes per run.
func DefaultOpts() Opts {
	return Opts{Scale: 20, Seed: 42, Arch: sim.DefaultArch()}
}

// QuickOpts is a fast smoke-test configuration.
func QuickOpts() Opts {
	return Opts{Scale: 16, Seed: 42, Arch: sim.DefaultArch()}
}

// pair is one (app, input) evaluation point of the default suite.
type pair struct{ App, Input string }

// DefaultSuite returns the (workload, input) pairs of the standard
// evaluation, mirroring the paper's coverage of every app across its
// input classes.
func DefaultSuite() []pair {
	return []pair{
		{"DegreeCount", "KRON"}, {"DegreeCount", "URND"},
		{"NeighborPopulate", "KRON"}, {"NeighborPopulate", "URND"}, {"NeighborPopulate", "ROAD"},
		{"PageRank", "KRON"},
		{"Radii", "KRON"},
		{"IntSort", "BIGKEY"},
		{"SpMV", "SKEW"},
		{"Transpose", "RAND"},
		{"PINV", "PERM"},
		{"SymPerm", "RAND"},
	}
}

// Fig2 regenerates Figure 2: the LLC miss rate of every application's
// baseline (unoptimized) execution — the motivation that irregular
// updates defeat conventional hierarchies.
func Fig2(o Opts) (*Table, error) {
	t := &Table{
		ID:     "Figure 2",
		Title:  "Locality of irregular updates: baseline LLC miss rate",
		Header: []string{"app", "input", "LLC-miss-rate", "L1-MPKI", "DRAM-lines"},
	}
	suite := DefaultSuite()
	ms, err := mapCells(o, len(suite), func(i int) (sim.Metrics, error) {
		app, err := BuildApp(suite[i].App, suite[i].Input, o.Scale, o.Seed)
		if err != nil {
			return sim.Metrics{}, err
		}
		return o.cell("Figure 2", app, sim.SchemeIDBaseline, 0, o.Arch)
	})
	if err != nil {
		return nil, err
	}
	for i, p := range suite {
		m := ms[i]
		mpki := 1000 * float64(m.L1Misses) / float64(m.Ctr.Instructions)
		t.AddRow(p.App, p.Input, fp(m.LLCMissRate), f2(mpki),
			fmt.Sprintf("%d", m.DRAM.ReadLines+m.DRAM.WriteLines))
	}
	return t, nil
}

// Fig4 regenerates Figure 4: Binning vs Accumulate sensitivity to the
// number of bins for Neighbor-Populate — the compromise COBRA removes.
// (a) phase runtimes; (b) load misses split by level.
func Fig4(o Opts) (*Table, error) {
	app, err := BuildApp("NeighborPopulate", "KRON", o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 4",
		Title:  "PB bin-count sensitivity (Neighbor-Populate, KRON)",
		Header: []string{"bins", "binning-cyc", "accum-cyc", "total-cyc", "bin-L2miss", "bin-LLCmiss", "bin-DRAMrd", "acc-L1miss"},
	}
	// The sweep's independent (bin-count) cells, each checkpointed.
	bins := validBins(app)
	sweep, err := mapCells(o, len(bins), func(i int) (sim.Metrics, error) {
		return o.cell("Figure 4", app, sim.SchemeIDPBSW, bins[i], o.Arch)
	})
	if err != nil {
		return nil, err
	}
	best := fastest(sweep)
	for _, m := range sweep {
		t.AddRow(fmt.Sprintf("%d", m.NumBins), fe(m.BinCycles), fe(m.AccumCycles), fe(m.Cycles),
			fmt.Sprintf("%d", m.BinMem.L2Misses), fmt.Sprintf("%d", m.BinMem.LLCMisses),
			fmt.Sprintf("%d", m.BinMem.DRAMReadLines), fmt.Sprintf("%d", m.AccumMem.L1Misses))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("PB-SW compromise picks %d bins (fastest total; red dotted line in the paper)", best.NumBins),
		"Binning prefers few bins; Accumulate prefers many — the green dotted lines")
	return t, nil
}

// Fig5 regenerates Figure 5: speedup of PB-SW and the unrealizable
// PB-SW-IDEAL over the baseline, showing the headroom COBRA targets.
func Fig5(o Opts) (*Table, error) {
	t := &Table{
		ID:     "Figure 5",
		Title:  "Ideal-PB headroom: speedup over baseline",
		Header: []string{"app", "input", "PB-SW", "PB-SW-IDEAL", "headroom"},
	}
	rs, err := runSuite(o)
	if err != nil {
		return nil, err
	}
	var pbS, idS []float64
	for _, r := range rs {
		sp, si := r.pbsw.Speedup(r.base), r.ideal.Speedup(r.base)
		pbS = append(pbS, sp)
		idS = append(idS, si)
		t.AddRow(r.p.App, r.p.Input, fx(sp), fx(si), fx(si/sp))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("geomean: PB-SW %s, PB-SW-IDEAL %s (paper: ideal ≈ 1.2x over PB)",
		fx(stats.GeoMean(pbS)), fx(stats.GeoMean(idS))))
	return t, nil
}

// Table1 regenerates Table I: the execution-time breakup of PB for
// Neighbor-Populate with small and large bin counts — Binning dominates.
func Table1(o Opts) (*Table, error) {
	app, err := BuildApp("NeighborPopulate", "KRON", o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Table I",
		Title:  "PB execution breakup (Neighbor-Populate)",
		Header: []string{"bins", "init%", "binning%", "accumulate%"},
	}
	binCounts := []int{64, 4096}
	ms, err := mapCells(o, len(binCounts), func(i int) (sim.Metrics, error) {
		return o.cell("Table I", app, sim.SchemeIDPBSW, binCounts[i], o.Arch)
	})
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		t.AddRow(fmt.Sprintf("%d", m.NumBins),
			fp(m.InitCycles/m.Cycles), fp(m.BinCycles/m.Cycles), fp(m.AccumCycles/m.Cycles))
	}
	t.Notes = append(t.Notes, "paper: Init ~6%, Binning is the dominant phase")
	return t, nil
}

// suiteResult carries the four headline schemes for one (app, input).
type suiteResult struct {
	p     pair
	base  sim.Metrics
	pbsw  sim.Metrics
	ideal sim.Metrics
	cobra sim.Metrics
}

// runSuite executes the headline comparison for every default pair,
// reusing the bin sweep across PB-SW / IDEAL (and returning it for
// callers that need PHI's bin count).
//
// It is the canonical three-stage use of the executor: (1) build every
// app in parallel (inputs memoized and shared read-only), (2) enumerate
// every independent simulation cell — one baseline, one PB-SW run per
// sweep bin count, and one COBRA run per pair — and run them all on one
// bounded pool, (3) aggregate in enumeration order, so the result (and
// every figure derived from it) is byte-identical at any -parallel.
func runSuite(o Opts) ([]suiteResult, error) {
	pairs := DefaultSuite()

	// Stage 1: build apps.
	apps, err := mapCells(o, len(pairs), func(i int) (*sim.App, error) {
		return BuildApp(pairs[i].App, pairs[i].Input, o.Scale, o.Seed)
	})
	if err != nil {
		return nil, err
	}

	// Stage 2: enumerate and run every simulation cell.
	type cellID struct {
		pair   int
		scheme sim.SchemeID
		bins   int
	}
	var cells []cellID
	sweepBins := make([][]int, len(pairs))
	for p := range pairs {
		sweepBins[p] = validBins(apps[p])
		cells = append(cells, cellID{p, sim.SchemeIDBaseline, 0})
		for _, b := range sweepBins[p] {
			cells = append(cells, cellID{p, sim.SchemeIDPBSW, b})
		}
		cells = append(cells, cellID{p, sim.SchemeIDCOBRA, 0})
	}
	// Each cell is journaled under the shared "suite" campaign unit, so
	// Figures 5/10/11/12 (which all derive from runSuite) share one
	// completed-cell set: within a campaign the journal replays the
	// cells an earlier suite figure ran, and a resume replays them all.
	// A caller without a journal simulates the suite afresh.
	res, err := mapCells(o, len(cells), func(i int) (sim.Metrics, error) {
		c := cells[i]
		return o.cell("suite", apps[c.pair], c.scheme, c.bins, o.Arch)
	})
	if err != nil {
		return nil, err
	}

	// Stage 3: aggregate by cell index (enumeration order).
	out := make([]suiteResult, len(pairs))
	ci := 0
	for p := range pairs {
		r := suiteResult{p: pairs[p]}
		r.base = res[ci]
		ci++
		sweep := res[ci : ci+len(sweepBins[p])]
		ci += len(sweepBins[p])
		r.pbsw = fastest(sweep)
		r.ideal = BestIdealPB(sweep)
		r.cobra = res[ci]
		ci++
		out[p] = r
	}
	return out, nil
}

// Fig10 regenerates Figure 10: speedups of PB-SW, PB-SW-IDEAL, and
// COBRA over the baseline across the whole suite.
func Fig10(o Opts) (*Table, error) {
	rs, err := runSuite(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 10",
		Title:  "Speedup over baseline",
		Header: []string{"app", "input", "PB-SW", "PB-SW-IDEAL", "COBRA", "COBRA/PB"},
	}
	var pbS, idS, coS, ratio []float64
	for _, r := range rs {
		sp, si, sc := r.pbsw.Speedup(r.base), r.ideal.Speedup(r.base), r.cobra.Speedup(r.base)
		pbS, idS, coS, ratio = append(pbS, sp), append(idS, si), append(coS, sc), append(ratio, sc/sp)
		t.AddRow(r.p.App, r.p.Input, fx(sp), fx(si), fx(sc), fx(sc/sp))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("geomean: PB-SW %s, IDEAL %s, COBRA %s, COBRA-over-PB %s",
			fx(stats.GeoMean(pbS)), fx(stats.GeoMean(idS)), fx(stats.GeoMean(coS)), fx(stats.GeoMean(ratio))),
		"paper means: PB 1.81x, COBRA 3.16x over baseline, 1.74x over PB",
		"paper anomalies: PINV (more bins do not help Accumulate), SymPerm (upper-triangle only)")
	return t, nil
}

// Fig11 regenerates Figure 11: COBRA's per-phase speedups over PB-SW.
func Fig11(o Opts) (*Table, error) {
	rs, err := runSuite(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 11",
		Title:  "COBRA per-phase speedup over PB-SW",
		Header: []string{"app", "input", "binning", "accumulate", "whole"},
	}
	var binS, accS []float64
	for _, r := range rs {
		sb := r.pbsw.BinCycles / r.cobra.BinCycles
		sa := r.pbsw.AccumCycles / r.cobra.AccumCycles
		binS, accS = append(binS, sb), append(accS, sa)
		t.AddRow(r.p.App, r.p.Input, fx(sb), fx(sa), fx(r.cobra.Speedup(r.pbsw)))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("geomean binning %s (paper: 2.2-32x, mean 8.3x), accumulate %s",
		fx(stats.GeoMean(binS)), fx(stats.GeoMean(accS))))
	return t, nil
}

// Fig12 regenerates Figure 12: instruction reduction (top) and branch
// misprediction rates (bottom) — COBRA eliminates Binning's software
// overheads.
func Fig12(o Opts) (*Table, error) {
	rs, err := runSuite(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 12",
		Title:  "Binning instruction reduction and branch misses",
		Header: []string{"app", "input", "instr-reduction", "base-brMiss", "PB-brMiss", "COBRA-brMiss"},
	}
	var red []float64
	for _, r := range rs {
		ir := float64(r.pbsw.Ctr.Instructions) / float64(r.cobra.Ctr.Instructions)
		red = append(red, ir)
		t.AddRow(r.p.App, r.p.Input, fx(ir),
			fp(r.base.Ctr.BranchMissRate()), fp(r.pbsw.BinCtr.BranchMissRate()), fp(r.cobra.BinCtr.BranchMissRate()))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("geomean instruction reduction %s (paper: 2-5.5x)", fx(stats.GeoMean(red))),
		"paper: COBRA reaches near-zero Binning branch misses except PageRank/Radii boundary branches")
	return t, nil
}

// Fig13a regenerates Figure 13a: fraction of Binning stalled on a full
// L1→L2 eviction buffer as its capacity varies (DES model).
func Fig13a(o Opts) (*Table, error) {
	t := &Table{
		ID:     "Figure 13a",
		Title:  "Eviction-buffer sizing: Binning stall fraction (Neighbor-Populate)",
		Header: []string{"entries", "KRON", "URND", "ROAD"},
	}
	sizes := []int{1, 2, 4, 8, 16, 32, 64}
	inputs := []string{"KRON", "URND", "ROAD"}
	apps, err := mapCells(o, len(inputs), func(i int) (*sim.App, error) {
		return BuildApp("NeighborPopulate", inputs[i], o.Scale, o.Seed)
	})
	if err != nil {
		return nil, err
	}
	// One cell per (input, buffer-size) point.
	ms, err := mapCells(o, len(inputs)*len(sizes), func(i int) (sim.Metrics, error) {
		input, e := inputs[i/len(sizes)], sizes[i%len(sizes)]
		return o.journaled(CellKey{Figure: "Figure 13a", App: "NeighborPopulate", Input: input,
			Scheme: fmt.Sprintf("COBRA[evict=%d,skipaccum]", e)},
			func() (sim.Metrics, error) {
				return sim.RunCOBRA(apps[i/len(sizes)], sim.CobraOpt{EvictBufL1L2: e, SkipAccum: true}, o.Arch)
			})
	})
	if err != nil {
		return nil, err
	}
	for i, e := range sizes {
		t.AddRow(fmt.Sprintf("%d", e),
			fp(ms[0*len(sizes)+i].EvictStallFrac), fp(ms[1*len(sizes)+i].EvictStallFrac), fp(ms[2*len(sizes)+i].EvictStallFrac))
	}
	t.Notes = append(t.Notes, "paper: a 32-entry buffer hides eviction latency for all inputs")
	return t, nil
}

// Fig13b regenerates Figure 13b: COBRA Binning sensitivity to the ways
// reserved for C-Buffers at each level.
func Fig13b(o Opts) (*Table, error) {
	app, err := BuildApp("NeighborPopulate", "KRON", o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 13b",
		Title:  "Binning cycles vs ways reserved (relative to default config)",
		Header: []string{"level", "ways", "binning-vs-default"},
	}
	// Cell 0 is the reference run; the rest are one per (level, ways).
	type wayCell struct {
		level string
		opt   sim.CobraOpt
		ways  int
	}
	cells := []wayCell{{level: "", opt: sim.CobraOpt{SkipAccum: true}}}
	for _, w := range []int{2, 4, 6, 7} {
		cells = append(cells, wayCell{"L1", sim.CobraOpt{ReserveL1: w, SkipAccum: true}, w})
	}
	for _, w := range []int{1, 2, 4, 7} {
		cells = append(cells, wayCell{"L2", sim.CobraOpt{ReserveL2: w, SkipAccum: true}, w})
	}
	for _, w := range []int{4, 8, 12, 15} {
		cells = append(cells, wayCell{"LLC", sim.CobraOpt{ReserveLLC: w, SkipAccum: true}, w})
	}
	ms, err := mapCells(o, len(cells), func(i int) (sim.Metrics, error) {
		c := cells[i]
		scheme := "COBRA[skipaccum]"
		if c.level != "" {
			scheme = fmt.Sprintf("COBRA[rsv%s=%d,skipaccum]", c.level, c.ways)
		}
		return o.journaled(CellKey{Figure: "Figure 13b", App: "NeighborPopulate", Input: "KRON", Scheme: scheme},
			func() (sim.Metrics, error) { return sim.RunCOBRA(app, c.opt, o.Arch) })
	})
	if err != nil {
		return nil, err
	}
	ref := ms[0]
	for i, c := range cells[1:] {
		t.AddRow(c.level, fmt.Sprintf("%d", c.ways), fx(ms[i+1].BinCycles/ref.BinCycles))
	}
	t.Notes = append(t.Notes, "paper: ≤10% variation at L1/LLC; L2 the most sensitive (stream prefetcher)")
	return t, nil
}

// Fig13c regenerates Figure 13c: worst-case DRAM bandwidth waste from
// context switches evicting partially filled LLC C-Buffers.
func Fig13c(o Opts) (*Table, error) {
	app, err := BuildApp("NeighborPopulate", "KRON", o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 13c",
		Title:  "Context-switch bandwidth waste (Neighbor-Populate)",
		Header: []string{"quantum-cycles", "switches", "waste-bytes", "waste-frac"},
	}
	// Linux default quantum ~ 1ms ≈ 2.66M cycles; sweep down to 1/100th.
	quanta := []float64{26_600, 266_000, 2_660_000}
	ms, err := mapCells(o, len(quanta), func(i int) (sim.Metrics, error) {
		q := quanta[i]
		return o.journaled(CellKey{Figure: "Figure 13c", App: "NeighborPopulate", Input: "KRON",
			Scheme: fmt.Sprintf("COBRA[q=%.0f,skipaccum]", q)},
			func() (sim.Metrics, error) {
				return sim.RunCOBRA(app, sim.CobraOpt{CtxSwitchQuantum: q, SkipAccum: true}, o.Arch)
			})
	})
	if err != nil {
		return nil, err
	}
	for i, q := range quanta {
		m := ms[i]
		total := m.BinMem.DRAMBytes()
		frac := 0.0
		if total > 0 {
			frac = float64(m.CtxWasteBytes) / float64(total)
		}
		t.AddRow(fmt.Sprintf("%.0f", q), fmt.Sprintf("%d", m.CtxSwitches),
			fmt.Sprintf("%d", m.CtxWasteBytes), fp(frac))
	}
	t.Notes = append(t.Notes, "paper: <5% waste even at 1/100th of the default Linux quantum")
	return t, nil
}

// Fig14 regenerates Figure 14: DRAM traffic (a) and L1 misses (b)
// across PB-SW, PHI, COBRA, and COBRA-COMM for the commutative
// Count-Degrees and non-commutative Neighbor-Populate.
func Fig14(o Opts) (*Table, error) {
	t := &Table{
		ID:     "Figure 14",
		Title:  "Commutativity specialization: traffic and locality vs PB-SW (Binning+Accumulate)",
		Header: []string{"app", "input", "scheme", "DRAM-bytes-vs-PB", "L1miss-vs-PB"},
	}
	pairs := []pair{
		{"DegreeCount", "KRON"}, {"DegreeCount", "URND"}, {"DegreeCount", "ROAD"},
		{"NeighborPopulate", "KRON"}, {"NeighborPopulate", "URND"},
	}
	// One cell per pair; within a cell the comparison schemes run
	// serially because PHI depends on the PB-SW reference's bin count.
	// Each inner scheme run is journaled individually, so a resumed
	// campaign replays the completed schemes of a partially finished
	// pair too.
	blocks, err := mapCells(o, len(pairs), func(i int) ([][]string, error) {
		p := pairs[i]
		app, err := BuildApp(p.App, p.Input, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		// PB-SW reference at a representative compromise bin count (the
		// comparison is about traffic and locality, not the sweep).
		pbBest, err := o.cell("Figure 14", app, sim.SchemeIDPBSW, 4096, o.Arch)
		if err != nil {
			return nil, err
		}
		pbTraffic := float64(pbBest.BinMem.Sum(pbBest.AccumMem).DRAMBytes())
		pbL1 := float64(pbBest.BinMem.Sum(pbBest.AccumMem).L1Misses)
		rows := [][]string{{p.App, p.Input, "PB-SW", "100.0%", "100.0%"}}
		// PHI reuses the reference's bin count; COBRA's is its own.
		for _, id := range []sim.SchemeID{sim.SchemeIDPHI, sim.SchemeIDCOBRA, sim.SchemeIDComm} {
			bins := 0
			if id == sim.SchemeIDPHI {
				bins = pbBest.NumBins
			}
			m, err := o.cell("Figure 14", app, id, bins, o.Arch)
			if err != nil {
				rows = append(rows, []string{p.App, p.Input, id.String(), "inapplicable", "inapplicable"})
				continue
			}
			mm := m.BinMem.Sum(m.AccumMem)
			rows = append(rows, []string{p.App, p.Input, id.String(),
				fp(float64(mm.DRAMBytes()) / pbTraffic), fp(float64(mm.L1Misses) / pbL1)})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range blocks {
		t.Rows = append(t.Rows, rows...)
	}
	t.Notes = append(t.Notes,
		"paper: PHI/COBRA-COMM inapplicable to non-commutative apps; COBRA-COMM matches PHI's traffic;",
		"COBRA beats PHI on L1 misses (optimal bins); low-reuse inputs (URND) see little coalescing benefit")
	return t, nil
}
