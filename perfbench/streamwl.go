package main

// stream-smallwin: the FigStream cell set (three stream workloads times
// Baseline, PB-SW, COBRA and PHI) in many small windows. Each window
// simulates on a fresh machine, so per-window set-up is most of the
// cost. Window latency is timed between successive OnWindow calls.
// Two checks: the streamed final state must byte-equal the offline
// oracle's, and the per-window metrics — which carry the timing model
// of every window's machine, unlike the final state — must have the
// same digest in every pass, equal to the reference.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"cobra/internal/exp"
	"cobra/internal/obsv"
	"cobra/internal/sim"
	"cobra/internal/stream"
)

type streamCell struct {
	name string
	w    stream.Workload
	cfg  stream.Config
}

type streamWL struct {
	cfg                runConfig
	scale, windows, wu int
	cells              []streamCell
	oracle             [][]byte        // RunOffline's Final per cell
	finals             [][][]byte      // per pass, per cell
	perWindow          [][]sim.Metrics // per pass: every cell's windows, in order
	windowMS           []float64       // untraced passes
}

func newStreamWL(cfg runConfig) runner {
	s := &streamWL{cfg: cfg, scale: 14, windows: 128, wu: 2048}
	if cfg.tiny {
		s.scale, s.windows, s.wu = 8, 6, 64
	}
	return s
}

// finalBytes is the byte form of a functional state, for byte equality.
func finalBytes(vals []uint64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return b
}

// setup builds every cell's workload and computes its offline oracle
// (stream.RunOffline), which the streamed runs must match.
func (s *streamWL) setup() error {
	s.cells, s.oracle = s.cells[:0], s.oracle[:0]
	pairs := []pairSpec{{"StreamIngest", "URND"}, {"StreamIngest", "SKEW"}, {"StreamDelta", "SKEW"}}
	schemes := []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDPBSW, sim.SchemeIDCOBRA, sim.SchemeIDPHI}
	for _, p := range pairs {
		for _, id := range schemes {
			spec := exp.RunSpec{
				App: p.app, Input: p.input, Scale: s.scale, Seed: s.cfg.seed,
				Schemes: []sim.SchemeID{id}, Kind: exp.KindStream,
				Windows: s.windows, WindowUpdates: s.wu,
			}
			if err := spec.Normalize(exp.Limits{}); err != nil {
				return err
			}
			w, err := spec.StreamWorkload()
			if err != nil {
				return err
			}
			c := streamCell{
				name: p.app + "/" + p.input + "/" + id.String(),
				w:    w,
				cfg:  stream.Config{Scheme: id.Scheme(), Bins: spec.Bins, Arch: spec.Arch(sim.DefaultArch())},
			}
			r, err := stream.RunOffline(w, c.cfg)
			if err != nil {
				return fmt.Errorf("offline oracle %s: %w", c.name, err)
			}
			s.cells = append(s.cells, c)
			s.oracle = append(s.oracle, finalBytes(r.Final))
		}
	}
	return nil
}

func (s *streamWL) reset(*obsv.Registry) error { return nil }

func (s *streamWL) digestKey() string {
	if s.cfg.tiny {
		return "stream-tiny"
	}
	return "stream-smallwin"
}

func (s *streamWL) pass(p *passCtx) error {
	var finals [][]byte
	var windows []sim.Metrics
	for _, c := range s.cells {
		cfg := c.cfg
		last := time.Now()
		cfg.OnWindow = func(int, sim.Metrics, bool) {
			now := time.Now()
			if p.tr == nil {
				s.windowMS = append(s.windowMS, float64(now.Sub(last))/1e6)
			}
			last = now
		}
		end := p.tr.begin("stream.run")
		r, err := stream.Run(c.w, cfg)
		end()
		p.attempted += c.w.Windows
		if err != nil {
			p.failed += c.w.Windows
			return fmt.Errorf("stream.Run %s: %w", c.name, err)
		}
		finals = append(finals, finalBytes(r.Final))
		windows = append(windows, r.PerWindow...)
	}
	s.finals = append(s.finals, finals)
	s.perWindow = append(s.perWindow, windows)
	return nil
}

func (s *streamWL) verify(ck *checks) error {
	for i, finals := range s.finals {
		for j, f := range finals {
			ck.expect(bytes.Equal(f, s.oracle[j]), "pass %d: %s streamed final state differs from stream.RunOffline", i+1, s.cells[j].name)
		}
	}
	if len(s.perWindow) == 0 {
		return nil
	}
	first := digestMetrics(s.perWindow[0])
	for i, ws := range s.perWindow[1:] {
		d := digestMetrics(ws)
		ck.expect(d == first, "pass %d: per-window metrics digest %s differs from pass 1's %s", i+2, short(d), short(first))
	}
	checkDigest(ck, s.digestKey(), s.cfg.seed, first, s.cfg.dir)
	return nil
}

// simMetrics returns the last pass's per-window metrics.
func (s *streamWL) simMetrics() []sim.Metrics {
	if len(s.perWindow) == 0 {
		return nil
	}
	return s.perWindow[len(s.perWindow)-1]
}

func (s *streamWL) extras() []reportRow {
	rows := []reportRow{{"window_p50_ms", median(s.windowMS), "ms", len(s.windowMS)}}
	if p99, err := quantile(s.windowMS, 0.99); err == nil {
		rows = append(rows, reportRow{"window_p99_ms", p99, "ms", len(s.windowMS)})
	}
	return rows
}

// probes measures the offline oracle on the same updates, which gives
// the fixed cost per window: (streamed - offline) / windows.
func (s *streamWL) probes(tr *tracer, out map[string]float64) error {
	var offline float64
	var updates, windows int
	for _, c := range s.cells {
		end := tr.begin("stream.offline")
		t0 := time.Now()
		_, err := stream.RunOffline(c.w, c.cfg)
		offline += time.Since(t0).Seconds()
		end()
		if err != nil {
			return fmt.Errorf("stream.RunOffline %s: %w", c.name, err)
		}
		updates += c.w.Total()
		windows += c.w.Windows
	}
	out["stream.offline_ns_per_update"] = offline * 1e9 / float64(updates)
	out["stream.window_fixed_ms"] = (tr.total("stream.run") - offline) * 1e3 / float64(windows)
	// The four schemes of a workload stream the same updates: replay
	// each distinct workload once.
	var apps []*sim.App
	for i := 0; i < len(s.cells); i += 4 {
		apps = append(apps, s.cells[i].w.App())
	}
	replayProbes(tr, apps, out)
	return journalProbe(tr, s.simMetrics(), 20, out)
}

func (s *streamWL) close() {}
