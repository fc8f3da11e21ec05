package exp

// Streaming surface of the experiment layer: the stream workload
// family in the registry, the journaled streamed-run driver, and the
// windows-vs-locality figure. See internal/stream for the engine and
// its determinism contract.

import (
	"fmt"

	"cobra/internal/obsv"
	"cobra/internal/sim"
	"cobra/internal/stream"
)

// StreamApps lists the streaming workload family.
func StreamApps() []string { return []string{"StreamDelta", "StreamIngest"} }

// IsStreamApp reports whether name is a streaming workload.
func IsStreamApp(name string) bool {
	return name == "StreamIngest" || name == "StreamDelta"
}

// streamWorkload maps registry names onto a stream.Workload. URND
// streams uniformly random keys; SKEW concentrates update mass on a
// power-law hot set.
func streamWorkload(app, input string, scale int, seed uint64, windows, windowUpdates int) (stream.Workload, error) {
	w := stream.Workload{
		Name:          app,
		InputName:     input,
		NumKeys:       1 << scale,
		Windows:       windows,
		WindowUpdates: windowUpdates,
		Seed:          seed,
	}
	switch app {
	case "StreamIngest":
		w.Kind = stream.KindIngest
	case "StreamDelta":
		w.Kind = stream.KindDelta
	default:
		return stream.Workload{}, fmt.Errorf("exp: unknown streaming workload %q (want one of %v)", app, StreamApps())
	}
	switch input {
	case "URND":
		w.Dist = stream.DistUniform
	case "SKEW":
		w.Dist = stream.DistSkewed
	default:
		return stream.Workload{}, fmt.Errorf("exp: unknown stream input %q (want URND, SKEW)", input)
	}
	return w, w.Validate()
}

// The stream family registers like any other workload, so BuildApp
// serves it to every offline consumer (cobrad jobs, the fleet, ad-hoc
// cobrasim runs) as the concatenated update sequence at the default
// window geometry — exactly the oracle the streamed run must match.
func init() {
	builder := func(app string) appBuilder {
		return func(input string, scale int, seed uint64) (*sim.App, error) {
			w, err := streamWorkload(app, input, scale, seed, DefaultStreamWindows, DefaultWindowUpdates(scale))
			if err != nil {
				return nil, err
			}
			return w.App(), nil
		}
	}
	for _, app := range StreamApps() {
		appBuilders[app] = builder(app)
	}
}

// RunStream executes one streamed scheme cell of a normalized stream
// spec under o's campaign controls: every window goes through o's cell
// store (keyed by CellKey.Window, 1-based), so windows checkpoint
// individually and an identical window under way is joined, not
// simulated twice. Replays count toward the progress line, and each
// window emits a window_done / window_replay event. The returned result
// carries per-window metrics, the MergeMetrics fold, and the final
// functional state.
func RunStream(o Opts, figure string, spec RunSpec, scheme sim.SchemeID) (*stream.Result, error) {
	return o.runStream(figure, spec, scheme, nil)
}

// runStream is RunStream passing each completed window to onWindow
// (nil ignores them).
func (o Opts) runStream(figure string, spec RunSpec, scheme sim.SchemeID, onWindow func(i int, m sim.Metrics, replayed bool)) (*stream.Result, error) {
	w, err := spec.StreamWorkload()
	if err != nil {
		return nil, err
	}
	base := spec.CellKey(figure, scheme, o.Arch)
	return stream.Run(w, stream.Config{
		Scheme: scheme.Scheme(),
		Bins:   spec.Bins,
		Arch:   spec.Arch(o.Arch),
		Ctx:    o.Ctx,
		Store: func(i int, run func() (sim.Metrics, error)) (sim.Metrics, bool, error) {
			k := base
			k.Window = i + 1
			m, replayed, err := o.do(k, run)
			if err != nil {
				return m, false, err
			}
			if replayed {
				obsv.Default().Counter("exp.checkpoint.replayed").Add(1)
				obsv.Default().Counter("exp.stream.windows_replayed").Add(1)
				o.Progress.Replayed()
				o.Events.Emit("window_replay", windowFields(k, i, w.Windows))
				return m, true, nil
			}
			if o.Journal != nil {
				obsv.Default().Counter("exp.checkpoint.recorded").Add(1)
			}
			obsv.Default().Counter("exp.stream.windows_done").Add(1)
			o.Events.Emit("window_done", windowFields(k, i, w.Windows))
			return m, false, nil
		},
		OnWindow: onWindow,
	})
}

// windowFields renders one window identity as JSONL event fields.
func windowFields(k CellKey, i, total int) map[string]any {
	return map[string]any{
		"figure": k.Figure,
		"app":    k.App,
		"input":  k.Input,
		"scheme": k.Scheme,
		"window": i + 1,
		"of":     total,
	}
}

// streamSpec assembles the RunSpec for one FigStream cell from the
// campaign options.
func (o Opts) streamSpec(app, input string, scheme sim.SchemeID) RunSpec {
	windows := o.StreamWindows
	if windows <= 0 {
		windows = DefaultStreamWindows
	}
	wu := o.StreamWindowUpdates
	if wu <= 0 {
		wu = DefaultWindowUpdates(o.Scale)
	}
	return RunSpec{
		App: app, Input: input,
		Scale: o.Scale, Seed: o.Seed,
		Schemes: []sim.SchemeID{scheme},
		Cores:   o.Arch.Cores(),
		Kind:    KindStream,
		Windows: windows, WindowUpdates: wu,
	}
}

// FigStream regenerates the streaming figure: windows-vs-locality for
// the streamable schemes over the stream workload family. Each cell is
// one full streamed run; the per-window columns show whether a
// scheme's locality holds up window over window (it does — window
// metrics are independent of accumulated state), and the merged
// columns compare schemes at the streaming epoch geometry, where PB's
// offline best-bin sweep is unavailable.
func FigStream(o Opts) (*Table, error) {
	t := &Table{
		ID:     "Stream",
		Title:  "Streaming irregular updates: per-window locality by scheme",
		Header: []string{"app", "input", "scheme", "windows", "LLC-miss", "first-win", "last-win", "DRAM-lines/upd", "cyc/upd"},
	}
	pairs := []pair{
		{"StreamIngest", "URND"},
		{"StreamIngest", "SKEW"},
		{"StreamDelta", "SKEW"},
	}
	schemes := []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDPBSW, sim.SchemeIDCOBRA, sim.SchemeIDPHI}
	type cell struct {
		p pair
		s sim.SchemeID
	}
	var cells []cell
	for _, p := range pairs {
		for _, s := range schemes {
			cells = append(cells, cell{p, s})
		}
	}
	rs, err := mapCells(o, len(cells), func(i int) (*stream.Result, error) {
		c := cells[i]
		return RunStream(o, "stream", o.streamSpec(c.p.App, c.p.Input, c.s), c.s)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		r := rs[i]
		m := r.Merged
		spec := o.streamSpec(c.p.App, c.p.Input, c.s)
		total := float64(spec.Windows) * float64(spec.WindowUpdates)
		first, last := r.PerWindow[0], r.PerWindow[len(r.PerWindow)-1]
		t.AddRow(c.p.App, c.p.Input, string(c.s.Scheme()),
			fmt.Sprintf("%d", len(r.PerWindow)),
			fp(m.LLCMissRate), fp(first.LLCMissRate), fp(last.LLCMissRate),
			f2(float64(m.DRAM.ReadLines+m.DRAM.WriteLines)/total),
			f2(m.Cycles/total))
	}
	t.Notes = append(t.Notes,
		"each run streams its updates in windows; per-window metrics merge via the MergeMetrics laws",
		"(cycles max-fold: the slowest window bounds a pipelined steady state; traffic and counters sum)",
		"first-win vs last-win: window locality is stationary — metrics are independent of accumulated state")
	return t, nil
}
