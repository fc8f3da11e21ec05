package main

// miss-s17-4c: two irregular kernels whose working sets overflow the
// private caches, on the 4-core sharded model, through Baseline, PB-SW
// at a fixed bin count (no sweep) and COBRA.

import (
	"fmt"

	"cobra/internal/exp"
	"cobra/internal/obsv"
	"cobra/internal/sim"
)

// missBins is the fixed PB-SW bin count of miss-s17-4c.
const missBins = 4096

type miss struct {
	cfg   runConfig
	scale int
	arch  sim.Arch
	pairs []pairSpec
	apps  []*sim.App

	last    []sim.Metrics // cells of the last pass
	digests []string      // one per pass
}

func newMiss(cfg runConfig) runner {
	m := &miss{
		cfg: cfg, scale: 17, arch: sim.DefaultArch().WithCores(4),
		pairs: []pairSpec{{"Transpose", "RAND"}, {"NeighborPopulate", "URND"}},
	}
	if cfg.tiny {
		m.scale = 9
	}
	return m
}

func (m *miss) digestKey() string {
	if m.cfg.tiny {
		return "miss-tiny"
	}
	return "miss-s17-4c"
}

func (m *miss) setup() error {
	exp.ResetMemos()
	m.apps = m.apps[:0]
	for _, p := range m.pairs {
		app, err := exp.BuildApp(p.app, p.input, m.scale, m.cfg.seed)
		if err != nil {
			return fmt.Errorf("building %s/%s: %w", p.app, p.input, err)
		}
		m.apps = append(m.apps, app)
	}
	return nil
}

// reset keeps the apps: every run builds fresh machines and appliers.
func (m *miss) reset(*obsv.Registry) error { return nil }

func (m *miss) pass(p *passCtx) error {
	cells := []struct {
		span string
		run  func(app *sim.App) (sim.Metrics, error)
	}{
		{"sim.baseline", func(app *sim.App) (sim.Metrics, error) { return sim.RunBaseline(app, m.arch) }},
		{"sim.pbsw", func(app *sim.App) (sim.Metrics, error) { return sim.RunPBSW(app, missBins, m.arch) }},
		{"sim.cobra", func(app *sim.App) (sim.Metrics, error) { return sim.RunCOBRA(app, sim.CobraOpt{}, m.arch) }},
	}
	m.last = m.last[:0]
	for _, app := range m.apps {
		for _, c := range cells {
			end := p.tr.begin(c.span)
			met, err := c.run(app)
			end()
			p.attempted++
			if err != nil {
				p.failed++
				return fmt.Errorf("%s %s/%s: %w", c.span, app.Name, app.InputName, err)
			}
			m.last = append(m.last, met)
		}
	}
	m.digests = append(m.digests, digestMetrics(m.last))
	return nil
}

func (m *miss) verify(ck *checks) error {
	for i, d := range m.digests[1:] {
		ck.expect(d == m.digests[0], "pass %d: metrics digest %s differs from pass 1's %s", i+2, short(d), short(m.digests[0]))
	}
	checkDigest(ck, m.digestKey(), m.cfg.seed, m.digests[0], m.cfg.dir)
	return nil
}

func (m *miss) simMetrics() []sim.Metrics { return m.last }

func (m *miss) extras() []reportRow { return nil }

func (m *miss) probes(tr *tracer, out map[string]float64) error {
	replayProbes(tr, m.apps, out)
	if err := journalProbe(tr, m.last, 20, out); err != nil {
		return err
	}
	return inputProbe(tr, m.pairs, m.scale, m.cfg.seed, out)
}

func (m *miss) close() { exp.ResetMemos() }
