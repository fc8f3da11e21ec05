package exp

// RunSpec: the one canonical description of "what to run".
//
// Five growth PRs left four divergent spellings of a run request —
// cobrasim flags, figures flags, srv.JobSpec, and dist's cell scatter —
// each with its own validation copy. RunSpec is now the single source
// of truth: every boundary (CLI flag parsing, the cobrad wire format,
// fleet cell translation) builds one of these and funnels through
// Normalize, so a spec that validates anywhere validates everywhere,
// and the stream window parameters exist in exactly one place.

import (
	"flag"
	"fmt"
	"strings"

	"cobra/internal/mem"
	"cobra/internal/sim"
	"cobra/internal/stream"
)

// Run kinds. The zero value (offline) is the historical behavior:
// build the whole workload and run it as one cell per scheme.
const (
	// KindOffline runs the workload as static offline cells.
	KindOffline = ""
	// KindStream runs the workload through the windowed streaming
	// engine: windows binned, flushed, and applied as epochs.
	KindStream = "stream"
)

// Streaming defaults: 8 windows of 2^(scale+1) updates each totals
// 16·2^scale updates — the same stream length as the offline graph
// workloads (URND carries 16n edges), so streamed and offline cells
// are comparable at equal scale.
const DefaultStreamWindows = 8

// DefaultWindowUpdates returns the default per-window update count at
// a scale.
func DefaultWindowUpdates(scale int) int { return 2 << scale }

// Limits bounds a RunSpec at normalization time. The zero value
// applies only the registry's own bounds (exp.MinScale/MaxScale, no
// core cap) — what CLIs use; the cobrad service fills it from its
// Config and its core cap.
type Limits struct {
	// DefaultScale replaces a zero Scale (0: DefaultOpts().Scale).
	DefaultScale int
	// MaxScale caps Scale below exp.MaxScale (<= 0: exp.MaxScale).
	MaxScale int
	// MaxCores caps Cores (<= 0: uncapped).
	MaxCores int
}

// RunSpec is the canonical run request: one (app, input, scale, seed)
// workload through one or more schemes, offline or streamed. Its JSON
// form IS the cobrad wire format (srv.JobSpec embeds it), so the field
// tags are frozen.
type RunSpec struct {
	App   string `json:"app"`
	Input string `json:"input"`
	// Scale is the input scale (keys/vertices ~ 2^scale); 0 selects the
	// normalizing limit's default.
	Scale int    `json:"scale,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	// Schemes are the execution schemes to run, at least one. The wire
	// form is the canonical scheme names (legacy case variants are
	// accepted on input).
	Schemes []sim.SchemeID `json:"schemes"`
	// Bins is the PB-SW/PHI bin count; 0 sweeps offline (and selects
	// the fixed epoch default when streaming).
	Bins int `json:"bins,omitempty"`
	// NUCA enables Table II's 4x4-mesh NUCA latency model.
	NUCA bool `json:"nuca,omitempty"`
	// Cores is the simulated core count (0 and 1 both select the
	// single-core model; >1 runs the sharded multi-core model).
	Cores int `json:"cores,omitempty"`

	// Kind selects offline ("" — the historical behavior) or streamed
	// ("stream") execution.
	Kind string `json:"kind,omitempty"`
	// Windows is the streamed window count (0: DefaultStreamWindows).
	// Only valid with Kind "stream".
	Windows int `json:"windows,omitempty"`
	// WindowUpdates is the per-window update count — the epoch size
	// (0: DefaultWindowUpdates(scale)). Only valid with Kind "stream".
	WindowUpdates int `json:"window_updates,omitempty"`
}

// Normalize validates the spec against the experiment registry and the
// given limits, filling defaults in place. Every violation is a client
// error. This is the ONE validation path: cobrasim, figures, cobrad,
// and the fleet translator all call it instead of keeping copies.
func (s *RunSpec) Normalize(lim Limits) error {
	if err := ValidApp(s.App); err != nil {
		return err
	}
	if err := ValidInput(s.Input); err != nil {
		return err
	}
	// Window parameters are only legal on streamed specs; note whether
	// the caller set any before the shared knob rules default them.
	windowed := s.Windows != 0 || s.WindowUpdates != 0
	if err := s.NormalizeKnobs(lim); err != nil {
		return err
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("exp: spec needs at least one scheme (want of %v)", sim.SchemeNames(sim.SchemeIDs()))
	}
	seen := map[sim.SchemeID]bool{}
	for _, id := range s.Schemes {
		if !id.Valid() {
			return fmt.Errorf("exp: invalid scheme id %d in spec", uint8(id))
		}
		if seen[id] {
			return fmt.Errorf("exp: duplicate scheme %q in spec", id)
		}
		seen[id] = true
	}
	if s.Bins < 0 {
		return fmt.Errorf("exp: negative bin count %d", s.Bins)
	}
	switch s.Kind {
	case KindOffline:
		if windowed {
			return fmt.Errorf("exp: window parameters require kind %q", KindStream)
		}
		s.Windows, s.WindowUpdates = 0, 0
	case KindStream:
		if !IsStreamApp(s.App) {
			return fmt.Errorf("exp: app %q is not a streaming workload (want one of %v)", s.App, StreamApps())
		}
		for _, id := range s.Schemes {
			if !id.Streamable() {
				return fmt.Errorf("exp: scheme %q is not streamable", id)
			}
		}
	default:
		return fmt.Errorf("exp: unknown run kind %q (want %q or %q)", s.Kind, KindOffline, KindStream)
	}
	return nil
}

// Validate is Normalize without mutation or limits: it reports whether
// a fully specified spec is runnable as-is.
func (s RunSpec) Validate() error {
	c := s
	return c.Normalize(Limits{})
}

// NormalizeKnobs validates and defaults only the numeric knobs shared
// by campaign templates (scale, cores, stream window parameters) —
// figures regenerates many (app, input) pairs per invocation, so the
// workload identity fields stay per-figure while the knobs come from
// one spec. Normalize applies the same rules through it.
func (s *RunSpec) NormalizeKnobs(lim Limits) error {
	if s.Scale == 0 {
		s.Scale = lim.DefaultScale
		if s.Scale == 0 {
			s.Scale = DefaultOpts().Scale
		}
	}
	maxScale := lim.MaxScale
	if maxScale <= 0 || maxScale > MaxScale {
		maxScale = MaxScale
	}
	if s.Scale < MinScale || s.Scale > maxScale {
		return fmt.Errorf("exp: scale %d out of range [%d, %d]", s.Scale, MinScale, maxScale)
	}
	if s.Cores < 0 {
		return fmt.Errorf("exp: negative core count %d", s.Cores)
	}
	if s.Cores == 0 {
		s.Cores = 1
	}
	if lim.MaxCores > 0 && s.Cores > lim.MaxCores {
		return fmt.Errorf("exp: core count %d exceeds limit %d", s.Cores, lim.MaxCores)
	}
	if s.Windows < 0 || s.WindowUpdates < 0 {
		return fmt.Errorf("exp: negative stream window parameters")
	}
	if s.Windows == 0 {
		s.Windows = DefaultStreamWindows
	}
	if s.WindowUpdates == 0 {
		s.WindowUpdates = DefaultWindowUpdates(s.Scale)
	}
	return nil
}

// Arch applies the spec's architecture knobs to a base configuration,
// in the canonical order every runner uses: NUCA first, then the core
// count — so spec-derived fingerprints match the runners exactly.
func (s RunSpec) Arch(base sim.Arch) sim.Arch {
	a := base
	if s.NUCA {
		a.Mem.NUCA = mem.DefaultNUCA()
	}
	if s.Cores > 1 {
		a = a.WithCores(s.Cores)
	}
	return a
}

// CellKey derives the checkpoint/cache identity of one of the spec's
// scheme cells under the given campaign unit and base architecture.
// Offline and streamed cells share the format; streamed windows append
// their 1-based index via CellKey.Window at run time.
func (s RunSpec) CellKey(fig string, scheme sim.SchemeID, base sim.Arch) CellKey {
	cores := s.Cores
	if cores == 0 {
		cores = 1
	}
	return CellKey{
		Figure: fig,
		App:    s.App,
		Input:  s.Input,
		Scale:  s.Scale,
		Seed:   s.Seed,
		Scheme: string(scheme.Scheme()),
		Bins:   s.Bins,
		Cores:  cores,
		Arch:   ArchFingerprint(s.Arch(base)),
	}
}

// StreamWorkload derives the deterministic streaming workload from a
// normalized stream spec.
func (s RunSpec) StreamWorkload() (stream.Workload, error) {
	if s.Kind != KindStream {
		return stream.Workload{}, fmt.Errorf("exp: spec kind %q is not %q", s.Kind, KindStream)
	}
	return streamWorkload(s.App, s.Input, s.Scale, s.Seed, s.Windows, s.WindowUpdates)
}

// ParseSchemes resolves a comma-separated scheme list, the one rule
// every CLI uses: each entry is trimmed and matched case-insensitively
// (sim.ParseSchemeIDLenient, as on the wire), and empty entries are
// skipped, so "Baseline," is one scheme. A list with no entries yields
// nil, which Normalize refuses.
func ParseSchemes(list string) ([]sim.SchemeID, error) {
	var ids []sim.SchemeID
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		id, err := sim.ParseSchemeIDLenient(name)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// BindKnobFlags registers the spec's numeric knobs (-scale, -seed,
// -cores, -windows, -window-updates) on fs, each defaulting to def's
// field, and returns the spec those flags assemble once fs is parsed.
// figures binds only these: its workload identity comes per figure.
func BindKnobFlags(fs *flag.FlagSet, def RunSpec) func() RunSpec {
	s := def
	fs.IntVar(&s.Scale, "scale", def.Scale, "input scale (keys/vertices ~ 2^scale; 0 = default)")
	fs.Uint64Var(&s.Seed, "seed", def.Seed, "generator seed")
	fs.IntVar(&s.Cores, "cores", def.Cores, "simulated core count (0 or 1 = one core; >1 = the sharded multi-core model)")
	fs.IntVar(&s.Windows, "windows", def.Windows, "stream window count (0 = default; streamed runs only)")
	fs.IntVar(&s.WindowUpdates, "window-updates", def.WindowUpdates, "updates per stream window (0 = default; streamed runs only)")
	return func() RunSpec { return s }
}

// BindFlags registers the eleven run-spec flags on fs — the knobs of
// BindKnobFlags plus -app, -input, -schemes, -bins, -nuca and -stream
// — each defaulting to def's field, and returns a function that
// assembles the spec once fs is parsed. The scheme list goes through
// ParseSchemes and -stream selects KindStream. Validation stays with
// Normalize, wherever the caller runs it.
func BindFlags(fs *flag.FlagSet, def RunSpec) func() (RunSpec, error) {
	knobs := BindKnobFlags(fs, def)
	app := fs.String("app", def.App, "workload: "+strings.Join(AppNames(), ", "))
	input := fs.String("input", def.Input, "input: "+strings.Join(InputNames(), ", "))
	schemes := fs.String("schemes", strings.Join(sim.SchemeNames(def.Schemes), ","),
		"comma-separated schemes: "+strings.Join(sim.SchemeNames(sim.SchemeIDs()), ", "))
	bins := fs.Int("bins", def.Bins, "PB-SW/PHI bin count (0 = sweep for best offline; fixed epoch default when streaming)")
	nuca := fs.Bool("nuca", def.NUCA, "model Table II's 4x4-mesh NUCA latency for the shared LLC")
	stream := fs.Bool("stream", def.Kind == KindStream, "drive the workload through the windowed streaming engine")
	return func() (RunSpec, error) {
		s := knobs()
		ids, err := ParseSchemes(*schemes)
		if err != nil {
			return RunSpec{}, err
		}
		s.App, s.Input, s.Schemes, s.Bins, s.NUCA = *app, *input, ids, *bins, *nuca
		s.Kind = KindOffline
		if *stream {
			s.Kind = KindStream
		}
		return s, nil
	}
}
