package exp

import (
	"context"
	"encoding/json"
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cobra/internal/obsv"
	"cobra/internal/sim"
)

// TestRunSpecGoldenWire pins the canonical JSON spelling of a RunSpec.
// This IS the cobrad wire format (srv.JobSpec embeds RunSpec), so any
// drift here is a wire break.
func TestRunSpecGoldenWire(t *testing.T) {
	spec := RunSpec{
		App: "DegreeCount", Input: "KRON",
		Scale: 16, Seed: 7,
		Schemes: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDCOBRA},
		Bins:    4096, NUCA: true, Cores: 4,
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"app":"DegreeCount","input":"KRON","scale":16,"seed":7,"schemes":["Baseline","COBRA"],"bins":4096,"nuca":true,"cores":4}`
	if string(b) != want {
		t.Fatalf("golden wire drift:\n got %s\nwant %s", b, want)
	}

	streamSpec := RunSpec{
		App: "StreamIngest", Input: "URND",
		Scale: 12, Schemes: []sim.SchemeID{sim.SchemeIDPHI},
		Kind: KindStream, Windows: 3, WindowUpdates: 1024,
	}
	b, err = json.Marshal(streamSpec)
	if err != nil {
		t.Fatal(err)
	}
	want = `{"app":"StreamIngest","input":"URND","scale":12,"schemes":["PHI"],"kind":"stream","windows":3,"window_updates":1024}`
	if string(b) != want {
		t.Fatalf("stream golden wire drift:\n got %s\nwant %s", b, want)
	}
}

// TestRunSpecRoundTrip pins JSON round-trip fidelity.
func TestRunSpecRoundTrip(t *testing.T) {
	in := RunSpec{
		App: "StreamDelta", Input: "SKEW",
		Scale: 14, Seed: 99,
		Schemes: []sim.SchemeID{sim.SchemeIDPBSW},
		Bins:    256, Cores: 2,
		Kind: KindStream, Windows: 5, WindowUpdates: 2048,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out RunSpec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the spec:\n in  %+v\n out %+v", in, out)
	}
}

// TestRunSpecLegacyDecode pins wire back-compat: pre-typed clients
// sent schemes as arbitrary-case strings; those fixtures must still
// decode to the canonical ids.
func TestRunSpecLegacyDecode(t *testing.T) {
	legacy := `{"app":"SpMV","input":"SKEW","scale":10,"schemes":["baseline"," pb-sw ","cobra-comm"]}`
	var spec RunSpec
	if err := json.Unmarshal([]byte(legacy), &spec); err != nil {
		t.Fatalf("legacy fixture no longer decodes: %v", err)
	}
	want := []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDPBSW, sim.SchemeIDComm}
	if !reflect.DeepEqual(spec.Schemes, want) {
		t.Fatalf("legacy schemes decoded to %v", spec.Schemes)
	}
	// Unknown scheme names still fail loudly.
	if err := json.Unmarshal([]byte(`{"app":"SpMV","schemes":["FASTER"]}`), &spec); err == nil {
		t.Fatal("unknown scheme decoded silently")
	}
}

// TestRunSpecNormalize drives the single validation path.
func TestRunSpecNormalize(t *testing.T) {
	ok := RunSpec{App: "DegreeCount", Input: "KRON", Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}
	if err := ok.Normalize(Limits{}); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	if ok.Scale != DefaultOpts().Scale || ok.Cores != 1 {
		t.Fatalf("defaults not filled: %+v", ok)
	}

	limited := RunSpec{App: "DegreeCount", Input: "KRON", Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}
	if err := limited.Normalize(Limits{DefaultScale: 8, MaxScale: 12, MaxCores: 4}); err != nil {
		t.Fatal(err)
	}
	if limited.Scale != 8 {
		t.Fatalf("limit default scale not applied: %d", limited.Scale)
	}

	bad := []struct {
		name string
		spec RunSpec
		lim  Limits
		want string
	}{
		{"unknown app", RunSpec{App: "Nope", Input: "KRON", Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}, Limits{}, "unknown workload"},
		{"unknown input", RunSpec{App: "DegreeCount", Input: "Nope", Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}, Limits{}, "unknown input"},
		{"no schemes", RunSpec{App: "DegreeCount", Input: "KRON"}, Limits{}, "at least one scheme"},
		{"invalid scheme id", RunSpec{App: "DegreeCount", Input: "KRON", Schemes: []sim.SchemeID{0}}, Limits{}, "invalid scheme"},
		{"duplicate scheme", RunSpec{App: "DegreeCount", Input: "KRON", Schemes: []sim.SchemeID{sim.SchemeIDPHI, sim.SchemeIDPHI}}, Limits{}, "duplicate scheme"},
		{"scale too high", RunSpec{App: "DegreeCount", Input: "KRON", Scale: 13, Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}, Limits{MaxScale: 12}, "out of range"},
		{"cores over cap", RunSpec{App: "DegreeCount", Input: "KRON", Cores: 8, Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}, Limits{MaxCores: 4}, "exceeds limit"},
		{"negative bins", RunSpec{App: "DegreeCount", Input: "KRON", Bins: -1, Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}, Limits{}, "negative bin"},
		{"windows without stream", RunSpec{App: "DegreeCount", Input: "KRON", Windows: 3, Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}, Limits{}, "require kind"},
		{"stream of non-stream app", RunSpec{App: "DegreeCount", Input: "KRON", Kind: KindStream, Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}, Limits{}, "not a streaming workload"},
		{"stream of PB-SW-IDEAL", RunSpec{App: "StreamIngest", Input: "URND", Kind: KindStream, Schemes: []sim.SchemeID{sim.SchemeIDPBIdeal}}, Limits{}, "not streamable"},
		{"unknown kind", RunSpec{App: "StreamIngest", Input: "URND", Kind: "batch", Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}, Limits{}, "unknown run kind"},
	}
	for _, tc := range bad {
		err := tc.spec.Normalize(tc.lim)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}

	// Stream defaults fill in.
	st := RunSpec{App: "StreamIngest", Input: "URND", Scale: 10, Kind: KindStream, Schemes: []sim.SchemeID{sim.SchemeIDCOBRA}}
	if err := st.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	if st.Windows != DefaultStreamWindows || st.WindowUpdates != DefaultWindowUpdates(10) {
		t.Fatalf("stream defaults not filled: %+v", st)
	}
}

// TestRunSpecCellKeyCompat pins that spec-derived cell identities are
// byte-identical to the historical hand-built fingerprints, so caches
// and journals recorded before RunSpec stay valid.
func TestRunSpecCellKeyCompat(t *testing.T) {
	spec := RunSpec{
		App: "DegreeCount", Input: "KRON", Scale: 16, Seed: 42,
		Schemes: []sim.SchemeID{sim.SchemeIDCOBRA}, Bins: 64, Cores: 2,
	}
	base := sim.DefaultArch()
	got := spec.CellKey("srv", sim.SchemeIDCOBRA, base)
	arch := base.WithCores(2)
	want := CellKey{
		Figure: "srv", App: "DegreeCount", Input: "KRON", Scale: 16, Seed: 42,
		Scheme: "COBRA", Bins: 64, Cores: 2, Arch: ArchFingerprint(arch),
	}
	if got != want {
		t.Fatalf("CellKey drift:\n got %+v\nwant %+v", got, want)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("fingerprint drift")
	}
	// Offline fingerprints never carry a window suffix; streamed windows do.
	if strings.Contains(got.Fingerprint(), "win=") {
		t.Fatalf("offline fingerprint grew a window suffix: %s", got.Fingerprint())
	}
	got.Window = 3
	if !strings.HasSuffix(got.Fingerprint(), "|win=3") {
		t.Fatalf("windowed fingerprint missing suffix: %s", got.Fingerprint())
	}
}

// TestRunStreamResume kills a journaled streamed run mid-stream and
// resumes it from the same journal: completed windows replay, and the
// final functional state still matches the offline oracle built by the
// registry (BuildApp serves the concatenated stream).
func TestRunStreamResume(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{
		App: "StreamIngest", Input: "URND", Scale: 8, Seed: 42,
		Schemes: []sim.SchemeID{sim.SchemeIDCOBRA},
		Kind:    KindStream, Windows: 4, WindowUpdates: 512,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	norm := spec
	if err := norm.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(dir, "stream.journal")
	j, err := OpenJournal(jpath, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	o := Opts{Scale: norm.Scale, Seed: norm.Seed, Arch: sim.DefaultArch(), Ctx: ctx, Journal: j}
	// Cancel after the second recorded window: the run dies between
	// windows 2 and 3.
	j.onRecord = func(total uint64) {
		if total == 2 {
			cancel()
		}
	}
	if _, err := RunStream(o, "stream", norm, sim.SchemeIDCOBRA); err == nil {
		t.Fatal("interrupted streamed run returned no error")
	}
	j.Close()

	j2, err := OpenJournal(jpath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("journal resumed with %d windows, want 2", j2.Len())
	}
	o2 := Opts{Scale: norm.Scale, Seed: norm.Seed, Arch: sim.DefaultArch(), Journal: j2}
	r, err := RunStream(o2, "stream", norm, sim.SchemeIDCOBRA)
	if err != nil {
		t.Fatal(err)
	}
	if r.Replayed != 2 {
		t.Fatalf("resumed run replayed %d windows, want 2", r.Replayed)
	}
	if len(r.PerWindow) != norm.Windows {
		t.Fatalf("resumed run has %d windows, want %d", len(r.PerWindow), norm.Windows)
	}

	// Oracle through the registry path: BuildApp serves the concatenated
	// stream, and a fresh un-journaled streamed run must agree with the
	// resumed one byte for byte.
	fresh, err := RunStream(Opts{Scale: norm.Scale, Seed: norm.Seed, Arch: sim.DefaultArch()}, "stream", norm, sim.SchemeIDCOBRA)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Final) != len(r.Final) {
		t.Fatal("final state lengths differ")
	}
	for i := range fresh.Final {
		if fresh.Final[i] != r.Final[i] {
			t.Fatalf("resumed final state diverges at key %d", i)
		}
	}
	for i := range fresh.PerWindow {
		if fresh.PerWindow[i] != r.PerWindow[i] {
			t.Fatalf("window %d metrics differ after resume", i)
		}
	}
}

// TestRunStreamNilJournal: exp.checkpoint.recorded counts only windows
// a store recorded. A streamed run with no journal records none; the
// same run through an in-memory journal records every window.
func TestRunStreamNilJournal(t *testing.T) {
	spec := RunSpec{
		App: "StreamIngest", Input: "URND", Scale: 8, Seed: 42,
		Schemes: []sim.SchemeID{sim.SchemeIDBaseline},
		Kind:    KindStream, Windows: 3, WindowUpdates: 256,
	}
	if err := spec.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	store, err := OpenJournal("", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		journal *Journal
		want    uint64
	}{{"nil journal", nil, 0}, {"in-memory journal", store, 3}} {
		reg := obsv.New()
		restore := swapDefault(reg)
		o := Opts{Scale: spec.Scale, Seed: spec.Seed, Arch: sim.DefaultArch(), Journal: c.journal}
		_, err := RunStream(o, "stream", spec, sim.SchemeIDBaseline)
		restore()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := reg.Counter("exp.checkpoint.recorded").Value(); got != c.want {
			t.Errorf("%s: exp.checkpoint.recorded = %d, want %d", c.name, got, c.want)
		}
		if got := reg.Counter("exp.stream.windows_done").Value(); got != 3 {
			t.Errorf("%s: exp.stream.windows_done = %d, want 3", c.name, got)
		}
	}
}

// TestFigStream smoke-runs the streaming figure at a tiny geometry.
func TestFigStream(t *testing.T) {
	o := Opts{Scale: 8, Seed: 42, Arch: sim.DefaultArch(), StreamWindows: 2, StreamWindowUpdates: 256}
	tab, err := FigStream(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 { // 3 pairs x 4 schemes
		t.Fatalf("FigStream produced %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[3] != "2" {
			t.Fatalf("row %v did not stream 2 windows", row)
		}
	}
}

// TestBuildStreamApps drives the registry entries for the stream
// family, including input validation.
func TestBuildStreamApps(t *testing.T) {
	for _, app := range StreamApps() {
		a, err := BuildApp(app, "URND", 8, 42)
		if err != nil {
			t.Fatalf("BuildApp(%s): %v", app, err)
		}
		if a.NumKeys != 1<<8 || a.NumUpdates != DefaultStreamWindows*DefaultWindowUpdates(8) {
			t.Fatalf("%s geometry: keys=%d updates=%d", app, a.NumKeys, a.NumUpdates)
		}
		if !a.Commutative {
			t.Fatalf("%s must be commutative", app)
		}
		if _, err := BuildApp(app, "KRON", 8, 42); err == nil {
			t.Fatalf("BuildApp(%s, KRON) accepted a non-stream input", app)
		}
	}
}

// TestParseSchemes pins the one scheme-list rule every CLI shares:
// entries are trimmed and matched case-insensitively, empty entries are
// skipped, and an empty list is left for Normalize to refuse.
func TestParseSchemes(t *testing.T) {
	for _, c := range []struct {
		list    string
		want    []sim.SchemeID
		wantErr string
	}{
		{list: "Baseline,COBRA", want: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDCOBRA}},
		{list: "Baseline,", want: []sim.SchemeID{sim.SchemeIDBaseline}},
		{list: " PB-SW , PHI ", want: []sim.SchemeID{sim.SchemeIDPBSW, sim.SchemeIDPHI}},
		{list: "baseline,pb-sw-ideal", want: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDPBIdeal}},
		{list: "Baseline,NoSuchScheme", wantErr: `unknown scheme "NoSuchScheme"`},
		{list: ""},
		{list: " , ,"},
	} {
		got, err := ParseSchemes(c.list)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseSchemes(%q) error = %v, want %q", c.list, err, c.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSchemes(%q) = %v, %v; want %v", c.list, got, err, c.want)
		}
		if len(got) == 0 {
			s := RunSpec{App: "DegreeCount", Input: "URND", Scale: MinScale, Schemes: got}
			if err := s.Normalize(Limits{}); err == nil || !strings.Contains(err.Error(), "at least one scheme") {
				t.Errorf("ParseSchemes(%q): Normalize error = %v, want the at-least-one-scheme error", c.list, err)
			}
		}
	}
}

// TestBindFlags: every flag defaults to the given spec's field, and a
// parsed command line assembles the spec field by field, -stream
// selecting KindStream.
func TestBindFlags(t *testing.T) {
	def := RunSpec{App: "PageRank", Input: "KRON", Scale: 12, Seed: 7,
		Schemes: []sim.SchemeID{sim.SchemeIDCOBRA}, Bins: 64, NUCA: true, Cores: 2,
		Kind: KindStream, Windows: 3, WindowUpdates: 100}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	spec := BindFlags(fs, def)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	got, err := spec()
	if err != nil || !reflect.DeepEqual(got, def) {
		t.Fatalf("defaults assemble %+v, %v; want %+v", got, err, def)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 11 {
		t.Fatalf("BindFlags registered %d flags, want the 11 run-spec flags", n)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	spec = BindFlags(fs, RunSpec{})
	argv := []string{"-app", "StreamIngest", "-input", "SKEW", "-scale", "9", "-seed", "3",
		"-schemes", "baseline, PHI,", "-bins", "16", "-nuca", "-cores", "4",
		"-stream", "-windows", "5", "-window-updates", "64"}
	if err := fs.Parse(argv); err != nil {
		t.Fatal(err)
	}
	want := RunSpec{App: "StreamIngest", Input: "SKEW", Scale: 9, Seed: 3,
		Schemes: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDPHI}, Bins: 16, NUCA: true, Cores: 4,
		Kind: KindStream, Windows: 5, WindowUpdates: 64}
	if got, err := spec(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%v assembles %+v, %v; want %+v", argv, got, err, want)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	knobs := BindKnobFlags(fs, RunSpec{Seed: 42, Cores: 1})
	if err := fs.Parse([]string{"-scale", "10", "-window-updates", "8"}); err != nil {
		t.Fatal(err)
	}
	if got := knobs(); !reflect.DeepEqual(got, RunSpec{Scale: 10, Seed: 42, Cores: 1, WindowUpdates: 8}) {
		t.Fatalf("knob flags assemble %+v", got)
	}
	if fs.Lookup("app") != nil {
		t.Fatal("BindKnobFlags registered a workload flag")
	}
}
