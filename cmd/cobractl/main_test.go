package main

// cobractl end-to-end tests against an in-process cobrad (srv.Server
// behind httptest): the CLI seam run() drives the same client code the
// installed binary uses.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cobra/internal/exp"
	"cobra/internal/fault"
	"cobra/internal/srv"
)

// startServer runs a small in-process cobrad and returns its base URL.
func startServer(t *testing.T) string {
	t.Helper()
	server, err := srv.New(srv.Config{Workers: 2, QueueDepth: 16, DefaultScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	server.Start()
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func runCtl(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestHealth(t *testing.T) {
	url := startServer(t)
	code, out, errOut := runCtl(t, "-addr", url, "health")
	if code != 0 || !strings.Contains(out, "ok") {
		t.Fatalf("health: code=%d out=%q err=%q", code, out, errOut)
	}
}

func TestRunEndToEnd(t *testing.T) {
	url := startServer(t)
	code, out, errOut := runCtl(t, "-addr", url, "run",
		"-app", "DegreeCount", "-input", "URND", "-scale", "8", "-schemes", "Baseline,COBRA")
	if code != 0 {
		t.Fatalf("run: code=%d out=%q err=%q", code, out, errOut)
	}
	if !strings.Contains(out, "done") || !strings.Contains(out, "Baseline") || !strings.Contains(out, "COBRA") {
		t.Fatalf("summary missing scheme results: %q", out)
	}

	// Same spec again: every cell replays from the server's cache.
	code, out, _ = runCtl(t, "-addr", url, "-json", "run",
		"-app", "DegreeCount", "-input", "URND", "-scale", "8", "-schemes", "Baseline,COBRA")
	if code != 0 {
		t.Fatalf("cached rerun failed: %q", out)
	}
	if !strings.Contains(out, `"cache_hits": 2`) {
		t.Fatalf("rerun did not hit the cache: %q", out)
	}
}

func TestSubmitGetWait(t *testing.T) {
	url := startServer(t)
	code, out, errOut := runCtl(t, "-addr", url, "submit",
		"-app", "DegreeCount", "-input", "URND", "-scale", "8", "-schemes", "Baseline")
	if code != 0 {
		t.Fatalf("submit: code=%d err=%q", code, errOut)
	}
	id := strings.Fields(out)[0]
	if !strings.HasPrefix(id, "j-") {
		t.Fatalf("no job id in %q", out)
	}
	code, out, errOut = runCtl(t, "-addr", url, "-poll", "5ms", "wait", id)
	if code != 0 || !strings.Contains(out, "done") {
		t.Fatalf("wait: code=%d out=%q err=%q", code, out, errOut)
	}
	code, out, _ = runCtl(t, "-addr", url, "get", id)
	if code != 0 || !strings.Contains(out, "done") {
		t.Fatalf("get after done: code=%d out=%q", code, out)
	}
}

func TestInvalidSpecPermanent(t *testing.T) {
	url := startServer(t)
	code, _, errOut := runCtl(t, "-addr", url, "submit",
		"-app", "NoSuchApp", "-input", "URND", "-schemes", "Baseline")
	if code != 1 {
		t.Fatalf("invalid app: code=%d", code)
	}
	if !strings.Contains(errOut, "permanent") {
		t.Fatalf("rejection not classified permanent: %q", errOut)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCtl(t); code != 2 {
		t.Fatal("no command accepted")
	}
	if code, _, _ := runCtl(t, "bogus"); code != 2 {
		t.Fatal("unknown command accepted")
	}
	if code, _, _ := runCtl(t, "submit", "-app", "X"); code != 2 {
		t.Fatal("incomplete spec accepted")
	}
	if code, _, _ := runCtl(t, "wait"); code != 2 {
		t.Fatal("wait without id accepted")
	}
}

func TestJobFailureExitCode(t *testing.T) {
	url := startServer(t)
	// Every worker completion fails via the injection point: the job
	// lands failed, Run's resubmissions fail the same way, and the CLI
	// reports exit 1.
	plan, err := fault.Parse("exp.cell.complete:every=1:err=eio")
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(plan)
	defer fault.Deactivate()
	code, _, errOut := runCtl(t, "-addr", url, "-poll", "5ms", "run",
		"-app", "DegreeCount", "-input", "URND", "-scale", "8", "-schemes", "Baseline")
	if code != 1 {
		t.Fatalf("failed job: code=%d err=%q", code, errOut)
	}
	if !strings.Contains(errOut, "failed") {
		t.Fatalf("stderr does not name the failed job: %q", errOut)
	}
}

func TestJobsList(t *testing.T) {
	url := startServer(t)
	code, _, errOut := runCtl(t, "-addr", url, "-poll", "5ms", "run",
		"-app", "DegreeCount", "-input", "URND", "-scale", "8", "-schemes", "Baseline")
	if code != 0 {
		t.Fatalf("run: code=%d err=%q", code, errOut)
	}
	code, out, errOut := runCtl(t, "-addr", url, "jobs")
	if code != 0 {
		t.Fatalf("jobs: code=%d err=%q", code, errOut)
	}
	if !strings.Contains(out, "done=1") {
		t.Fatalf("summary line missing done count: %q", out)
	}
	if !strings.Contains(out, "DegreeCount/URND") {
		t.Fatalf("recent rows missing the job: %q", out)
	}

	code, out, _ = runCtl(t, "-addr", url, "-json", "jobs")
	if code != 0 || !strings.Contains(out, `"done": 1`) {
		t.Fatalf("json jobs: code=%d out=%q", code, out)
	}
}

func TestFleetRun(t *testing.T) {
	w1, w2 := startServer(t), startServer(t)
	code, out, errOut := runCtl(t, "fleet", "run",
		"-addrs", w1+","+w2,
		"-app", "DegreeCount", "-input", "URND", "-scale", "8", "-schemes", "Baseline,COBRA")
	if code != 0 {
		t.Fatalf("fleet run: code=%d out=%q err=%q", code, out, errOut)
	}
	if !strings.Contains(errOut, "2/2 workers healthy") {
		t.Fatalf("probe report missing: %q", errOut)
	}
	if !strings.Contains(out, "Baseline") || !strings.Contains(out, "COBRA") || !strings.Contains(out, "(fleet)") {
		t.Fatalf("fleet results missing: %q", out)
	}
	if !strings.Contains(errOut, "2 dispatched, 2 completed") {
		t.Fatalf("fleet summary missing: %q", errOut)
	}
}

// TestFleetRunLocalFallback: with no worker reachable every cell is
// declined, simulated locally and reported in the local column; rerun
// on the same -journal, the cells replay and report as fleet cells,
// with the same metrics.
func TestFleetRunLocalFallback(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	args := []string{"fleet", "run", "-addrs", dead.URL, "-journal", filepath.Join(t.TempDir(), "fleet.jsonl"),
		"-app", "DegreeCount", "-input", "URND", "-scale", "8", "-schemes", "Baseline,COBRA"}
	code, local, errOut := runCtl(t, args...)
	if code != 0 {
		t.Fatalf("fleet run: code=%d out=%q err=%q", code, local, errOut)
	}
	if strings.Count(local, "(local)") != 2 || strings.Count(errOut, "declined — simulating locally") != 2 {
		t.Fatalf("cells not run locally: out=%q err=%q", local, errOut)
	}
	code, replay, errOut := runCtl(t, args...)
	if code != 0 {
		t.Fatalf("rerun: code=%d out=%q err=%q", code, replay, errOut)
	}
	if strings.Count(replay, "(fleet)") != 2 || strings.Contains(errOut, "declined") {
		t.Fatalf("journaled cells not replayed as fleet cells: out=%q err=%q", replay, errOut)
	}
	if strings.ReplaceAll(local, "(local)", "(fleet)") != replay {
		t.Fatalf("replayed metrics differ:\n%s\n%s", local, replay)
	}
}

func TestFleetRunUsage(t *testing.T) {
	if code, _, _ := runCtl(t, "fleet"); code != 2 {
		t.Fatal("fleet without subcommand accepted")
	}
	if code, _, _ := runCtl(t, "fleet", "run", "-app", "X"); code != 2 {
		t.Fatal("fleet run without -addrs accepted")
	}
}

// TestFleetRunRefusesStream: fleet run dispatches offline cells only,
// so a streamed spec (or a window flag without -stream) is a usage
// error before any worker is contacted.
func TestFleetRunRefusesStream(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer ts.Close()
	code, _, errOut := runCtl(t, "fleet", "run", "-addrs", ts.URL,
		"-app", "StreamIngest", "-input", "URND", "-scale", "8", "-schemes", "COBRA", "-stream")
	if code != 2 || !strings.Contains(errOut, "cobractl run -stream") {
		t.Fatalf("-stream: code=%d err=%q, want exit 2 pointing to cobractl run -stream", code, errOut)
	}
	code, _, errOut = runCtl(t, "fleet", "run", "-addrs", ts.URL,
		"-app", "DegreeCount", "-input", "URND", "-scale", "8", "-schemes", "COBRA", "-windows", "4")
	if code != 2 || !strings.Contains(errOut, "window parameters") {
		t.Fatalf("-windows: code=%d err=%q, want exit 2", code, errOut)
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("refused specs contacted the worker %d times", n)
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

// TestFlagTables pins every flag's name, type and default: the global
// flags, submit's and run's, and fleet run's.
func TestFlagTables(t *testing.T) {
	global, _ := newCommand(io.Discard, io.Discard)
	job, _, _ := jobFlags(io.Discard)
	fleet, _, _, _ := fleetFlags(io.Discard)
	for _, c := range []struct {
		fs   *flag.FlagSet
		want string
	}{
		{global, `addr string "http://127.0.0.1:8372"
json bool "false"
poll time.Duration "250ms"
retries int "4"
timeout time.Duration "10m0s"
`},
		{job, `app string ""
bins int "0"
cores int "0"
input string ""
job-timeout time.Duration "0s"
nuca bool "false"
scale int "0"
schemes string ""
seed uint64 "42"
stream bool "false"
window-updates int "0"
windows int "0"
`},
		{fleet, `addrs string ""
app string ""
bins int "0"
cores int "1"
input string ""
journal string ""
nuca bool "false"
scale int "16"
schemes string ""
seed uint64 "42"
stream bool "false"
window-updates int "0"
windows int "0"
`},
	} {
		if got := flagTable(c.fs); got != c.want {
			t.Errorf("%s flag table drifted:\n got:\n%s\nwant:\n%s", c.fs.Name(), got, c.want)
		}
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

// TestREADMECommands parses every README cobractl example through the
// global flag set and its subcommand's, without contacting a server:
// an example that cites a removed or renamed flag fails here.
func TestREADMECommands(t *testing.T) {
	for _, args := range readmeCommands(t, "cobractl") {
		global, _ := newCommand(io.Discard, io.Discard)
		if err := global.Parse(args); err != nil || global.NArg() == 0 {
			t.Errorf("%v: %v (no subcommand?)", args, err)
			continue
		}
		cmd, rest := global.Arg(0), global.Args()[1:]
		switch {
		case cmd == "submit" || cmd == "run":
			if _, code := parseSpec(rest, io.Discard); code != 0 {
				t.Errorf("%v: %s spec exits %d", args, cmd, code)
			}
		case cmd == "fleet" && len(rest) > 0 && rest[0] == "run":
			fs, spec, _, _ := fleetFlags(io.Discard)
			err := fs.Parse(rest[1:])
			if err == nil {
				var s exp.RunSpec
				if s, err = spec(); err == nil {
					err = s.Normalize(exp.Limits{})
				}
			}
			if err != nil {
				t.Errorf("%v: %v", args, err)
			}
		case cmd == "get" || cmd == "wait":
			if len(rest) != 1 {
				t.Errorf("%v: %s takes one job id", args, cmd)
			}
		case cmd == "health" || cmd == "jobs":
		default:
			t.Errorf("%v: unknown subcommand %q", args, cmd)
		}
	}
}
