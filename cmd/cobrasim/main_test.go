package main

// cobrasim tests at the CLI seam: run() is the whole binary minus
// process spawn.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"cobra/internal/exp"
	"cobra/internal/sim"
)

func runSim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestList(t *testing.T) {
	code, out, errOut := runSim(t, "-list")
	if code != 0 {
		t.Fatalf("-list: code=%d err=%q", code, errOut)
	}
	for _, want := range []string{
		"workloads: " + strings.Join(exp.AppNames(), ", "),
		"inputs:    " + strings.Join(exp.InputNames(), ", "),
		"schemes:   " + strings.Join(sim.SchemeNames(sim.SchemeIDs()), ", "),
		"streaming: " + strings.Join(exp.StreamApps(), ", ") + " (with -stream)",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("-list output lacks %q:\n%s", want, out)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, out, errOut := runSim(t, "-h")
	if code != 0 || out != "" || !strings.Contains(errOut, "Usage of cobrasim") {
		t.Fatalf("-h: code=%d out=%q err=%q", code, out, errOut)
	}
}

func TestUsageErrorsWriteNoStdout(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "99"},
		{"-scale", "8", "-schemes", "Baseline,NoSuchScheme"},
		{"-scale", "8", "-windows", "4"},
		{"-no-such-flag"},
	} {
		code, out, errOut := runSim(t, args...)
		if code != 2 || out != "" || errOut == "" {
			t.Errorf("%v: code=%d out=%q err=%q, want exit 2, an error and no stdout", args, code, out, errOut)
		}
	}
}

// TestJSONMatchesDirectRuns: -json decodes to exactly the metrics the
// exp entry points produce for the same spec.
func TestJSONMatchesDirectRuns(t *testing.T) {
	code, out, errOut := runSim(t, "-json", "-scale", "8", "-schemes", "Baseline,COBRA")
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	var got []sim.Metrics
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatal(err)
	}
	app, err := exp.BuildApp("DegreeCount", "URND", 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	var want []sim.Metrics
	for _, id := range []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDCOBRA} {
		m, err := exp.RunScheme(app, id.Scheme(), 0, sim.DefaultArch())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("-json metrics differ from direct runs:\n got %+v\nwant %+v", got, want)
	}
}

// TestSchemeListTrailingComma: cobrasim parses scheme lists by the
// same rule as cobractl, so an empty trailing entry is skipped.
func TestSchemeListTrailingComma(t *testing.T) {
	code, out, errOut := runSim(t, "-json", "-scale", "8", "-schemes", "Baseline,")
	if code != 0 || strings.Count(out, `"Scheme"`) != 1 {
		t.Fatalf("code=%d out=%q err=%q, want one Baseline result", code, out, errOut)
	}
}

func TestStreamRun(t *testing.T) {
	code, out, errOut := runSim(t, "-app", "StreamIngest", "-stream", "-scale", "8")
	if code != 0 || !strings.Contains(out, "(streamed)") || !strings.Contains(out, "COBRA") {
		t.Fatalf("code=%d out=%q err=%q", code, out, errOut)
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
	const want = `app string "DegreeCount"
bins int "0"
cores int "1"
input string "URND"
json bool "false"
list bool "false"
nuca bool "false"
scale int "18"
schemes string "Baseline,PB-SW,COBRA"
seed uint64 "42"
stream bool "false"
window-updates int "0"
windows int "0"
`
	fs, _, _, _ := newFlags(io.Discard)
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

// TestREADMECommands parses every README cobrasim example through the
// flag set and validates its spec, without running it: an example that
// cites a removed or renamed flag fails here.
func TestREADMECommands(t *testing.T) {
	for _, args := range readmeCommands(t, "cobrasim") {
		fs, spec, _, _ := newFlags(io.Discard)
		if err := fs.Parse(args); err != nil {
			t.Errorf("%v: %v", args, err)
			continue
		}
		s, err := spec()
		if err == nil {
			err = s.Normalize(exp.Limits{})
		}
		if err != nil || fs.NArg() != 0 {
			t.Errorf("%v: %v (stray args %v)", args, err, fs.Args())
		}
	}
}
