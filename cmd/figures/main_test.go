package main

// Acceptance tests for the observability layer at the CLI seam: the
// run() function is the whole binary, so these are end-to-end minus
// process spawn. The core claim under test is the ISSUE's acceptance
// criterion: a campaign with -progress, -events, and a manifest
// produces BYTE-IDENTICAL figure output to an observability-disabled
// run, while emitting valid JSONL and a well-formed manifest.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cobra/internal/exp"
	"cobra/internal/obsv"
)

// runFigures invokes the CLI seam with memo caches cleared, so every
// invocation simulates from scratch like a fresh process would.
func runFigures(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	exp.ResetMemos()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestObservabilityOutputByteIdentical(t *testing.T) {
	dir := t.TempDir()
	plainPath := filepath.Join(dir, "plain.txt")
	obsPath := filepath.Join(dir, "obs.txt")
	eventsPath := filepath.Join(dir, "ev.jsonl")

	// Plain run: no observability at all.
	code, _, stderr := runFigures(t, "-fig", "10", "-scale", "12", "-o", plainPath, "-manifest", "none")
	if code != 0 {
		t.Fatalf("plain run exited %d\n%s", code, stderr)
	}
	if _, err := os.Stat(plainPath + ".manifest.json"); !os.IsNotExist(err) {
		t.Fatal("-manifest none still wrote a manifest")
	}

	// Instrumented run: progress + events + auto manifest.
	code, _, stderr = runFigures(t, "-fig", "10", "-scale", "12", "-o", obsPath,
		"-progress", "-events", eventsPath)
	if code != 0 {
		t.Fatalf("instrumented run exited %d\n%s", code, stderr)
	}

	plain, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, obs) {
		t.Fatalf("figure artifact differs with observability enabled:\nplain %d bytes, instrumented %d bytes", len(plain), len(obs))
	}
	if len(plain) == 0 {
		t.Fatal("artifact is empty")
	}

	// The default registry must be restored after run() returns, so
	// embedding callers (and later tests) see observability disabled.
	if obsv.Default() != nil {
		t.Fatal("run() leaked the process-global registry")
	}

	checkEventLog(t, eventsPath)
	checkManifest(t, obsPath+".manifest.json")
}

// checkEventLog asserts every line is standalone JSON with the wire
// fields and that the campaign lifecycle events bracket the stream.
func checkEventLog(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	var wantSeq uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Seq    uint64         `json:"seq"`
			Time   string         `json:"ts"`
			Name   string         `json:"ev"`
			Fields map[string]any `json:"f"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSONL line: %v\n%s", err, sc.Text())
		}
		if ev.Seq != wantSeq {
			t.Fatalf("seq %d, want %d", ev.Seq, wantSeq)
		}
		if _, err := time.Parse(time.RFC3339Nano, ev.Time); err != nil {
			t.Fatalf("bad event timestamp %q: %v", ev.Time, err)
		}
		wantSeq++
		names = append(names, ev.Name)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("only %d events emitted: %v", len(names), names)
	}
	if names[0] != "campaign_start" || names[len(names)-1] != "campaign_done" {
		t.Fatalf("lifecycle events missing: first=%s last=%s", names[0], names[len(names)-1])
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"figure_start", "figure_done", "cell_done"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("no %s event in stream: %v", want, names)
		}
	}
}

// checkManifest asserts the provenance record is complete: toolchain,
// campaign identity, per-figure timing, and the metric snapshot.
func checkManifest(t *testing.T, path string) {
	t.Helper()
	m, err := obsv.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "figures" {
		t.Fatalf("tool = %q", m.Tool)
	}
	if m.GoVersion != runtime.Version() || m.GOMAXPROCS <= 0 || m.NumCPU <= 0 {
		t.Fatalf("toolchain fields wrong: %+v", m)
	}
	if m.ArchFingerprint == "" || m.Scale != 12 || m.Parallel <= 0 {
		t.Fatalf("campaign identity wrong: %+v", m)
	}
	if m.WallSeconds <= 0 || m.End.Before(m.Start) {
		t.Fatalf("wall clock wrong: %+v", m)
	}
	if len(m.Figures) != 1 || m.Figures[0].Name != "10" || m.Figures[0].Seconds <= 0 {
		t.Fatalf("figure timings wrong: %+v", m.Figures)
	}
	if len(m.Metrics) == 0 {
		t.Fatal("metric snapshot empty")
	}
	for _, name := range []string{"exp.cells.completed", "exp.cell.wall", "sim.baseline.wall"} {
		if _, ok := m.Metrics[name]; !ok {
			t.Fatalf("manifest metrics missing %q (have %d metrics)", name, len(m.Metrics))
		}
	}
	if mv := m.Metrics["exp.cells.completed"]; mv.Count == 0 {
		t.Fatal("no cells recorded as completed")
	}
}

// TestManifestRecordsCheckpointReplay: a resumed campaign's manifest
// must report the replay/record split, and the replayed run's artifact
// must match the original byte-for-byte.
func TestManifestRecordsCheckpointReplay(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	first := filepath.Join(dir, "first.txt")
	second := filepath.Join(dir, "second.txt")

	code, _, stderr := runFigures(t, "-fig", "10", "-scale", "12", "-o", first,
		"-manifest", "none", "-checkpoint", ckpt)
	if code != 0 {
		t.Fatalf("first run exited %d\n%s", code, stderr)
	}
	code, _, stderr = runFigures(t, "-fig", "10", "-scale", "12", "-o", second,
		"-checkpoint", ckpt, "-resume", "-events", filepath.Join(dir, "ev.jsonl"))
	if code != 0 {
		t.Fatalf("resumed run exited %d\n%s", code, stderr)
	}

	a, _ := os.ReadFile(first)
	b, _ := os.ReadFile(second)
	if !bytes.Equal(a, b) {
		t.Fatal("resumed artifact differs from original")
	}

	m, err := obsv.ReadManifest(second + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.Checkpoint == nil || m.Checkpoint.Path != ckpt {
		t.Fatalf("checkpoint info missing: %+v", m.Checkpoint)
	}
	if m.Checkpoint.Replayed == 0 {
		t.Fatalf("resume replayed no cells: %+v", m.Checkpoint)
	}
	if mv := m.Metrics["exp.checkpoint.replayed"]; mv.Count != m.Checkpoint.Replayed {
		t.Fatalf("replay counter (%d) disagrees with journal stats (%d)", mv.Count, m.Checkpoint.Replayed)
	}

	// The event stream of a fully-replayed campaign names every cell as
	// a replay, never a fresh completion.
	data, err := os.ReadFile(filepath.Join(dir, "ev.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"ev":"cell_replay"`)) {
		t.Fatal("no cell_replay events in resumed run")
	}
}

func TestRunFlagValidation(t *testing.T) {
	if code, _, _ := runFigures(t, "-resume"); code != 2 {
		t.Fatalf("-resume without -checkpoint exited %d, want 2", code)
	}
	if code, _, _ := runFigures(t, "-fig", "nope"); code != 1 {
		t.Fatalf("unknown figure exited %d, want 1", code)
	}
	if code, _, _ := runFigures(t); code != 2 {
		t.Fatalf("no figure selection exited %d, want 2", code)
	}
	code, stdout, _ := runFigures(t, "-list")
	if code != 0 || !strings.Contains(stdout, "10") {
		t.Fatalf("-list failed: %d %q", code, stdout)
	}
}

func TestProgressLineRendersToStderr(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runFigures(t, "-fig", "t1", "-scale", "12", "-progress",
		"-o", filepath.Join(dir, "t1.txt"), "-manifest", "none")
	if code != 0 {
		t.Fatalf("run exited %d\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "cells") {
		t.Fatalf("no progress line on stderr: %q", stderr)
	}
	if strings.Contains(stdout, "cells/s") || strings.Contains(stdout, "\r") {
		t.Fatal("progress leaked into stdout")
	}
}

// flagTable renders a flag set as "name type default" lines in name
// order.
func flagTable(fs *flag.FlagSet) string {
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&b, "%s %T %q\n", f.Name, f.Value.(flag.Getter).Get(), f.DefValue)
	})
	return b.String()
}

// TestFlagTable pins every flag's name, type and default.
func TestFlagTable(t *testing.T) {
	const want = `all bool "false"
checkpoint string ""
compact-checkpoint bool "false"
cores int "1"
cpuprofile string ""
events string ""
fig string ""
fleet string ""
list bool "false"
manifest string "auto"
memprofile string ""
o string ""
parallel int "0"
progress bool "false"
quick bool "false"
resume bool "false"
scale int "0"
seed uint64 "42"
trace string ""
window-updates int "0"
windows int "0"
`
	fs, _ := newCommand(io.Discard, io.Discard)
	if got := flagTable(fs); got != want {
		t.Fatalf("flag table drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// readmeCommands returns the arguments of every `go run ./cmd/<name>`
// command in README.md, with backslash continuations joined and
// trailing comments and `&` dropped.
func readmeCommands(t *testing.T, name string) [][]string {
	t.Helper()
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var cmds [][]string
	for _, line := range strings.Split(strings.ReplaceAll(string(b), "\\\n", " "), "\n") {
		_, args, ok := strings.Cut(line, "go run ./cmd/"+name+" ")
		if !ok {
			continue
		}
		args, _, _ = strings.Cut(args, "#")
		cmds = append(cmds, strings.Fields(strings.TrimSuffix(strings.TrimSpace(args), "&")))
	}
	if len(cmds) == 0 {
		t.Fatalf("README.md has no go run ./cmd/%s command", name)
	}
	return cmds
}

// TestREADMECommands parses every README figures example through the
// flag set without running a campaign: an example that cites a removed
// or renamed flag, or an unknown figure, fails here.
func TestREADMECommands(t *testing.T) {
	for _, args := range readmeCommands(t, "figures") {
		fs, _ := newCommand(io.Discard, io.Discard)
		if err := fs.Parse(args); err != nil || fs.NArg() != 0 {
			t.Errorf("%v: %v (stray args %v)", args, err, fs.Args())
			continue
		}
		if fig := fs.Lookup("fig").Value.String(); fig != "" && figures[fig] == nil {
			t.Errorf("%v: unknown figure %q", args, fig)
		}
	}
}
