package main

// campaign-s14: exp.Fig10 as users run it, serially. The suite memo
// would make a second Fig10 in one process almost free, so every pass
// starts from exp.ResetMemos with the inputs rebuilt (untimed) before
// it, and the pass asserts that exp.InputBuilds does not grow. Each
// timed Fig10 checkpoints its cells to a journal on a temp file; the
// checks read the journal back, so they see exactly the cells the
// timed code produced.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"cobra/internal/exp"
	"cobra/internal/obsv"
	"cobra/internal/sim"
)

// suiteCells are one suite pair's cells, as runSuite enumerates them.
type suiteCells struct {
	base, cobra sim.Metrics
	sweep       []sim.Metrics // PB-SW, one per sweep bin count
}

type campaign struct {
	cfg   runConfig
	scale int
	arch  sim.Arch
	pairs []pairSpec
	apps  []*sim.App // built in set-up; replayed by the probes
	tmp   string     // journal directory

	journals    []string     // journal of every Fig10 pass
	tables      [][][]string // Fig10 rows of every Fig10 pass
	inputGrowth []uint64     // exp.InputBuilds growth during each Fig10 pass
	decomposed  [][]suiteCells
	last        []sim.Metrics // cells of the last decomposition
}

func newCampaign(cfg runConfig) runner {
	c := &campaign{cfg: cfg, scale: 14, arch: sim.DefaultArch()}
	if cfg.tiny {
		c.scale = 8
	}
	for _, p := range exp.DefaultSuite() {
		c.pairs = append(c.pairs, pairSpec{p.App, p.Input})
	}
	return c
}

func (c *campaign) digestKey() string {
	if c.cfg.tiny {
		return "campaign-tiny"
	}
	return "campaign-s14"
}

// setup empties every exp memo and builds the suite's apps, which
// leaves their generated inputs in the input memo for the next pass.
func (c *campaign) setup() error {
	exp.ResetMemos()
	c.apps = c.apps[:0]
	for _, p := range c.pairs {
		app, err := exp.BuildApp(p.app, p.input, c.scale, c.cfg.seed)
		if err != nil {
			return fmt.Errorf("building %s/%s: %w", p.app, p.input, err)
		}
		c.apps = append(c.apps, app)
	}
	return nil
}

// reset gives the next pass an empty suite memo and prebuilt inputs.
func (c *campaign) reset(*obsv.Registry) error { return c.setup() }

// pass runs exp.Fig10 in untraced runs. A traced run instead runs the
// same cells as direct calls in both its passes, the untraced base and
// the traced one, so the overhead compares like with like and the
// trace splits the campaign into app builds, baselines, PB-SW sweeps
// and COBRA runs.
func (c *campaign) pass(p *passCtx) error {
	if c.cfg.trace {
		p.attempted += len(c.pairs)
		cells, err := c.decompose(p.tr)
		if err != nil {
			p.failed += len(c.pairs)
			return err
		}
		c.decomposed = append(c.decomposed, cells)
		return nil
	}
	if c.tmp == "" {
		dir, err := os.MkdirTemp("", "perfbench-campaign-")
		if err != nil {
			return err
		}
		c.tmp = dir
	}
	path := filepath.Join(c.tmp, fmt.Sprintf("fig10-%d.jsonl", len(c.journals)+1))
	j, err := exp.OpenJournal(path, false)
	if err != nil {
		return err
	}
	builds := exp.InputBuilds()
	tab, err := exp.Fig10(exp.Opts{Scale: c.scale, Seed: c.cfg.seed, Arch: c.arch, Parallel: 1, Journal: j})
	growth := exp.InputBuilds() - builds
	p.attempted++
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		p.failed++
		return fmt.Errorf("exp.Fig10: %w", err)
	}
	c.journals = append(c.journals, path)
	c.inputGrowth = append(c.inputGrowth, growth)
	c.tables = append(c.tables, tab.Rows)
	return nil
}

// decompose runs every Fig10 cell through the public per-layer calls
// (exp.BuildApp, sim.RunBaseline, exp.BestPBSWN with one worker,
// sim.RunCOBRA).
func (c *campaign) decompose(tr *tracer) ([]suiteCells, error) {
	var out []suiteCells
	for _, p := range c.pairs {
		var app *sim.App
		var sc suiteCells
		err := tr.do("exp.build_app", func() (err error) {
			app, err = exp.BuildApp(p.app, p.input, c.scale, c.cfg.seed)
			return err
		})
		if err == nil {
			err = tr.do("sim.baseline", func() (err error) {
				sc.base, err = sim.RunBaseline(app, c.arch)
				return err
			})
		}
		if err == nil {
			err = tr.do("exp.pbsw_sweep", func() (err error) {
				_, sc.sweep, err = exp.BestPBSWN(app, c.arch, 1)
				return err
			})
		}
		if err == nil {
			err = tr.do("sim.cobra", func() (err error) {
				sc.cobra, err = sim.RunCOBRA(app, sim.CobraOpt{}, c.arch)
				return err
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", p.app, p.input, err)
		}
		out = append(out, sc)
	}
	c.last = flatten(out)
	return out, nil
}

// readJournal reads a Fig10 pass's cells back from its journal, under
// the keys exp journals suite cells with.
func (c *campaign) readJournal(ck *checks, pass int, path string) ([]suiteCells, error) {
	j, err := exp.OpenJournal(path, true)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	fp := exp.ArchFingerprint(c.arch)
	var out []suiteCells
	for i, p := range c.pairs {
		get := func(scheme string, bins int) sim.Metrics {
			m, ok := j.Lookup(exp.CellKey{Figure: "suite", App: p.app, Input: p.input, Scheme: scheme, Bins: bins,
				Scale: c.scale, Seed: c.cfg.seed, Cores: c.arch.Cores(), Arch: fp})
			ck.expect(ok, "pass %d: %s/%s %s bins=%d missing from the Fig10 journal", pass, p.app, p.input, scheme, bins)
			return m
		}
		sc := suiteCells{base: get("Baseline", 0), cobra: get("COBRA", 0)}
		for _, b := range sweepBins(c.apps[i]) {
			sc.sweep = append(sc.sweep, get("PB-SW", b))
		}
		out = append(out, sc)
	}
	return out, nil
}

// flatten lists cells in runSuite's order: per pair, the baseline, the
// sweep, COBRA.
func flatten(cells []suiteCells) []sim.Metrics {
	var out []sim.Metrics
	for _, sc := range cells {
		out = append(out, sc.base)
		out = append(out, sc.sweep...)
		out = append(out, sc.cobra)
	}
	return out
}

// fig10Rows recomputes Fig10's rows from the cells: the fastest sweep
// point is PB-SW (the first of equals, as runSuite picks it), and
// exp.BestIdealPB of the sweep is PB-SW-IDEAL.
func (c *campaign) fig10Rows(cells []suiteCells) [][]string {
	var rows [][]string
	for i, sc := range cells {
		var best sim.Metrics
		for _, m := range sc.sweep {
			if best.Cycles == 0 || m.Cycles < best.Cycles {
				best = m
			}
		}
		ideal := exp.BestIdealPB(sc.sweep)
		sp, si, so := best.Speedup(sc.base), ideal.Speedup(sc.base), sc.cobra.Speedup(sc.base)
		rows = append(rows, []string{c.pairs[i].app, c.pairs[i].input, fx(sp), fx(si), fx(so), fx(so / sp)})
	}
	return rows
}

func fx(v float64) string { return fmt.Sprintf("%.2fx", v) }

// verify checks every pass's cells: a Fig10 pass's journal must hold
// every suite cell, its rows must be the ones the cells imply, and
// exp.InputBuilds must not have grown during it. The cells of every
// pass must have one digest, equal to the reference.
func (c *campaign) verify(ck *checks) error {
	var digests []string
	for i, path := range c.journals {
		ck.expect(c.inputGrowth[i] == 0, "pass %d: exp.InputBuilds grew by %d during the timed Fig10", i+1, c.inputGrowth[i])
		cells, err := c.readJournal(ck, i+1, path)
		if err != nil {
			return err
		}
		rows := c.fig10Rows(cells)
		ck.expect(slices.EqualFunc(c.tables[i], rows, slices.Equal[[]string]),
			"pass %d: Fig10 rows differ from the rows its journaled cells imply:\n  got  %v\n  want %v", i+1, c.tables[i], rows)
		digests = append(digests, digestMetrics(flatten(cells)))
	}
	for _, cells := range c.decomposed {
		digests = append(digests, digestMetrics(flatten(cells)))
	}
	if len(digests) == 0 {
		return nil
	}
	for i, d := range digests[1:] {
		ck.expect(d == digests[0], "pass %d: metrics digest %s differs from pass 1's %s", i+2, short(d), short(digests[0]))
	}
	checkDigest(ck, c.digestKey(), c.cfg.seed, digests[0], c.cfg.dir)
	return nil
}

func (c *campaign) simMetrics() []sim.Metrics { return c.last }

func (c *campaign) extras() []reportRow { return nil }

func (c *campaign) probes(tr *tracer, out map[string]float64) error {
	out["exp.build_app_s"] = tr.total("exp.build_app")
	out["exp.pbsw_sweep_s"] = tr.total("exp.pbsw_sweep")
	replayProbes(tr, c.apps, out)
	if err := journalProbe(tr, c.last, 20, out); err != nil {
		return err
	}
	return inputProbe(tr, c.pairs, c.scale, c.cfg.seed, out)
}

func (c *campaign) close() {
	exp.ResetMemos()
	if c.tmp != "" {
		_ = os.RemoveAll(c.tmp)
	}
}
