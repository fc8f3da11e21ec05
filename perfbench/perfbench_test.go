package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"cobra/internal/obsv"
	"cobra/internal/sim"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func tinyConfig(trace bool) runConfig {
	return runConfig{seed: 3, seconds: 0.001, trace: trace, tiny: true}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	extras := []string{"setup_wall_s", "wall_s", "window_p50_ms", "window_p99_ms",
		"cold_p50_ms", "warm_p50_ms", "job_p99_ms", "jobs_per_s"}
	var names []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, d.name)
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	for _, n := range append(names, extras...) {
		if !nameRE.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	for _, d := range workloads {
		if !nameRE.MatchString(d.name) {
			t.Errorf("workload name %q does not match %s", d.name, nameRE)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bad bound", kind, i, g.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, bj.Workloads[i].Name, w.name)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, d := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(d, tinyConfig(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", d.name, trace, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", d.name, trace, res.Failed, res.Attempted, res.Failures)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", d.name, trace, len(res.Metrics), len(want))
			}
			values := map[string]reportRow{}
			for _, m := range res.Metrics {
				values[m.Name] = m
			}
			for _, m := range want {
				v, ok := values[m.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", d.name, trace, m.name)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", d.name, m.name, v.Value)
				}
			}
		}
	}
}

// runTiny runs a runner's set-up and one pass, for the tamper tests.
func runTiny(t *testing.T, r runner) {
	t.Helper()
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	if err := r.pass(&passCtx{}); err != nil {
		t.Fatal(err)
	}
}

// verifyFails reports whether verify flags at least one failure.
func verifyFails(t *testing.T, r runner) bool {
	t.Helper()
	var ck checks
	if err := r.verify(&ck); err != nil {
		t.Fatal(err)
	}
	return ck.failed > 0
}

func TestDigestNamedFields(t *testing.T) {
	ms := []sim.Metrics{{App: "a", Input: "b", Scheme: sim.SchemeCOBRA, Cycles: 10}}
	d := digestMetrics(ms)
	ms[0].CBufMissRate, ms[0].EvictStallFrac = 0.5, 0.25 // outside the named set
	if digestMetrics(ms) != d {
		t.Error("digest depends on fields outside the named set")
	}
	for _, tamper := range []func(m *sim.Metrics){
		func(m *sim.Metrics) { m.Cycles++ },
		func(m *sim.Metrics) { m.BinCycles++ },
		func(m *sim.Metrics) { m.Ctr.Instructions++ },
		func(m *sim.Metrics) { m.AccumCtr.BranchMisses++ },
		func(m *sim.Metrics) { m.LLCMisses++ },
		func(m *sim.Metrics) { m.DRAM.WriteLines++ },
		func(m *sim.Metrics) { m.BinMem.L2Misses++ },
	} {
		c := ms[0]
		tamper(&c)
		if digestMetrics([]sim.Metrics{c}) == d {
			t.Error("tampered metrics kept the digest")
		}
	}
}

func TestReferenceDigestTamper(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range ref.Digests {
		var ok, bad checks
		checkDigest(&ok, name, ref.Seed, want, "")
		checkDigest(&bad, name, ref.Seed, want[:len(want)-1]+"x", "")
		if ok.failed != 0 || bad.failed != 1 {
			t.Errorf("%s: reference check passed=%d tampered failed=%d", name, ok.failed, bad.failed)
		}
	}
	dir := t.TempDir()
	var first, again, tampered checks
	checkDigest(&first, "campaign-s14", ref.Seed+1, "d1", dir)
	checkDigest(&again, "campaign-s14", ref.Seed+1, "d1", dir)
	checkDigest(&tampered, "campaign-s14", ref.Seed+1, "d2", dir)
	if first.failed+again.failed != 0 || tampered.failed != 1 {
		t.Errorf("cross-run digest: first %d again %d tampered %d failures", first.failed, again.failed, tampered.failed)
	}
}

func TestCampaignChecksCatchTampering(t *testing.T) {
	c := newCampaign(tinyConfig(false)).(*campaign)
	defer c.close()
	runTiny(t, c)
	if err := c.reset(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.pass(&passCtx{}); err != nil {
		t.Fatal(err)
	}
	if verifyFails(t, c) {
		t.Fatal("untampered campaign failed its checks")
	}
	saved := c.tables[0][1][4]
	c.tables[0][1][4] = "9.99x"
	if !verifyFails(t, c) {
		t.Error("a tampered Fig10 row passed")
	}
	c.tables[0][1][4] = saved
	c.inputGrowth[0] = 1
	if !verifyFails(t, c) {
		t.Error("input builds during the timed Fig10 passed")
	}
	c.inputGrowth[0] = 0
	// A cell the second Fig10 journaled differs from the first's.
	path := c.journals[1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte(`"Cycles":`), []byte(`"Cycles":1`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if !verifyFails(t, c) {
		t.Error("a tampered journaled cell passed")
	}
	// A cell missing from the journal.
	first, _, _ := bytes.Cut(data, []byte("\n"))
	if err := os.WriteFile(path, append(first, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if !verifyFails(t, c) {
		t.Error("a journal missing cells passed")
	}
}

// TestCampaignTracedDecomposition: a traced run's direct calls give the
// cells a timed Fig10 journals.
func TestCampaignTracedDecomposition(t *testing.T) {
	c := newCampaign(tinyConfig(false)).(*campaign)
	defer c.close()
	runTiny(t, c)
	cells, err := c.decompose(nil)
	if err != nil {
		t.Fatal(err)
	}
	var ck checks
	journaled, err := c.readJournal(&ck, 1, c.journals[0])
	if err != nil || ck.failed != 0 {
		t.Fatal(err, ck.msgs)
	}
	if digestMetrics(flatten(cells)) != digestMetrics(flatten(journaled)) {
		t.Error("the decomposition's cells differ from the journaled Fig10 cells")
	}
}

func TestMissChecksCatchTampering(t *testing.T) {
	m := newMiss(tinyConfig(false)).(*miss)
	runTiny(t, m)
	if err := m.pass(&passCtx{}); err != nil {
		t.Fatal(err)
	}
	if verifyFails(t, m) {
		t.Fatal("untampered miss failed its checks")
	}
	m.digests[1] = "tampered"
	if !verifyFails(t, m) {
		t.Error("a pass with a different digest passed")
	}
}

func TestStreamChecksCatchTampering(t *testing.T) {
	s := newStreamWL(tinyConfig(false)).(*streamWL)
	runTiny(t, s)
	if verifyFails(t, s) {
		t.Fatal("untampered stream failed its checks")
	}
	s.finals[0][5][3] ^= 1
	if !verifyFails(t, s) {
		t.Error("a tampered streamed final state passed")
	}
	s.finals[0][5][3] ^= 1
	if err := s.pass(&passCtx{}); err != nil {
		t.Fatal(err)
	}
	if verifyFails(t, s) {
		t.Fatal("two untampered stream passes failed their checks")
	}
	s.perWindow[1][7].Cycles++ // a window's timing, not its functional state
	if !verifyFails(t, s) {
		t.Error("a tampered per-window metric passed")
	}
}

func TestCobradChecksCatchTampering(t *testing.T) {
	c := newCobrad(tinyConfig(false)).(*cobradWL)
	defer c.close()
	runTiny(t, c)
	if verifyFails(t, c) {
		t.Fatal("untampered cobrad-mix failed its checks")
	}
	replies := c.replies[0]
	warm := -1
	for i, r := range c.mixes[0] {
		if r.kind == kindWarm {
			warm = i
			break
		}
	}
	if warm < 0 {
		t.Fatal("mix has no warm request")
	}
	saved := replies[warm].results
	replies[warm].results = append(json.RawMessage(nil), bytes.Replace(saved, []byte(`"Cycles":`), []byte(`"Cycles":1`), 1)...)
	if !verifyFails(t, c) {
		t.Error("a warm reply differing from its cold twin passed")
	}
	replies[warm].results = saved
	for i := range c.refs {
		c.refs[i] = []byte("[]")
		break
	}
	if !verifyFails(t, c) {
		t.Error("a reply differing from its direct run passed")
	}
}

// TestCobradColdShapes: the cold jobs are the fleet's suite cells (one
// scheme each, PB-SW at the sweep's bin counts) with a cobractl job
// after each pair.
func TestCobradColdShapes(t *testing.T) {
	c := newCobrad(tinyConfig(false)).(*cobradWL)
	defer c.close()
	jobs, err := c.coldJobs(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range jobs {
		s := j.RunSpec
		got = append(got, fmt.Sprintf("%s/%s %v bins=%d cores=%d", s.App, s.Input, s.Schemes, s.Bins, s.Cores))
	}
	// Scale 6: 64 keys, so the sweep is 16 bins only.
	want := []string{
		"DegreeCount/KRON [Baseline] bins=0 cores=1",
		"DegreeCount/KRON [PB-SW] bins=16 cores=1",
		"DegreeCount/KRON [COBRA] bins=0 cores=1",
		"DegreeCount/URND [Baseline COBRA] bins=0 cores=0",
		"DegreeCount/URND [Baseline] bins=0 cores=1",
		"DegreeCount/URND [PB-SW] bins=16 cores=1",
		"DegreeCount/URND [COBRA] bins=0 cores=1",
		"PageRank/KRON [COBRA] bins=0 cores=0",
		"NeighborPopulate/KRON [Baseline] bins=0 cores=1",
		"NeighborPopulate/KRON [PB-SW] bins=16 cores=1",
		"NeighborPopulate/KRON [COBRA] bins=0 cores=1",
		"PageRank/KRON [Baseline PB-SW] bins=0 cores=0",
	}
	if !slices.Equal(got, want) {
		t.Errorf("cold jobs:\n got  %q\n want %q", got, want)
	}
	// Fleet cells share the campaign's seed; every cobractl job has its own.
	seeds := map[uint64]bool{jobs[0].Seed: true}
	for _, j := range jobs {
		if j.Cores == 1 {
			if j.Seed != jobs[0].Seed {
				t.Errorf("%s/%s: seed %d, the campaign's is %d", j.App, j.Input, j.Seed, jobs[0].Seed)
			}
		} else if seeds[j.Seed] {
			t.Errorf("%s/%s: seed %d not unique", j.App, j.Input, j.Seed)
		}
		seeds[j.Seed] = true
	}
}

func TestQuantileTailRule(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := quantile(xs, 0.99); err == nil {
		t.Error("p99 of 999 samples (9.99 beyond it) was not refused")
	}
	xs = append(xs, 999)
	if v, err := quantile(xs, 0.99); err != nil || v < 980 || v > 999 {
		t.Errorf("p99 of 1000 samples = %g, %v", v, err)
	}
	if v, err := quantile([]float64{3, 1, 2}, 0.5); err != nil || v != 2 {
		t.Errorf("median = %g, %v", v, err)
	}
}

func TestTracerCoverageCountsOverlapOnce(t *testing.T) {
	tr := newTracer()
	at := func(s float64) float64 { return s }
	tr.spans = []span{
		{Name: "a", Parent: -1, Start: at(0), End: at(4)},
		{Name: "b", Parent: -1, Start: at(2), End: at(6)},
		{Name: "child", Parent: 0, Start: at(1), End: at(9)},
		{Name: "c", Parent: -1, Start: at(8), End: at(9)},
	}
	if got := tr.coverage(0, 10); got < 0.699 || got > 0.701 {
		t.Errorf("coverage = %g, want 0.7", got)
	}
}

// TestFailedWorkloadExitsNonZero: a workload that cannot run fails the
// command, names the workload and prints no result line.
func TestFailedWorkloadExitsNonZero(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = append(append([]workloadDef(nil), saved...), workloadDef{
		name: "broken", why: "test", setupReps: 1,
		newRunner: func(runConfig) runner { return brokenRunner{} },
	})
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "broken", "--results", t.TempDir()}, &out, &errb)
	if code == 0 || !strings.Contains(errb.String(), "workload broken failed") || strings.Contains(out.String(), `"correct"`) {
		t.Errorf("exit %d, stderr %q, stdout %q", code, errb.String(), out.String())
	}
}

// TestTraceCoverageCheck: a traced pass whose time the spans do not
// cover fails the coverage check.
func TestTraceCoverageCheck(t *testing.T) {
	res, err := runWorkload(workloadDef{name: "gap", setupReps: 1,
		newRunner: func(runConfig) runner { return gapRunner{} }}, tinyConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Error("a traced pass with no spans passed the coverage check")
	}
}

// gapRunner's pass takes time outside any span.
type gapRunner struct{ brokenRunner }

func (gapRunner) setup() error { return nil }
func (gapRunner) pass(p *passCtx) error {
	p.attempted++
	time.Sleep(20 * time.Millisecond)
	return nil
}

type brokenRunner struct{}

func (brokenRunner) setup() error                             { return errors.New("no inputs") }
func (brokenRunner) reset(*obsv.Registry) error               { return nil }
func (brokenRunner) pass(*passCtx) error                      { return nil }
func (brokenRunner) verify(*checks) error                     { return nil }
func (brokenRunner) simMetrics() []sim.Metrics                { return nil }
func (brokenRunner) extras() []reportRow                      { return nil }
func (brokenRunner) probes(*tracer, map[string]float64) error { return nil }
func (brokenRunner) close()                                   {}
