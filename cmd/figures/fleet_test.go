package main

// Process-level fleet tests: re-execute this test binary as real cobrad
// worker processes, scatter a campaign across them (figures -fleet),
// SIGKILL a worker mid-campaign or the coordinator itself, and demand
// the gathered artifact byte-equal a local run.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"cobra/internal/fault"
	"cobra/internal/srv"
)

// fleetWorkerMain is the body of a re-executed test binary acting as a
// cobrad worker (TestMain dispatches here on FIGURES_FLEET_WORKER=1):
// it serves a srv.Server on 127.0.0.1:0, prints the bound address as
// the first line on stdout, and serves until SIGTERM, then drains.
// COBRA_FAULTS in its environment arms fault schedules (a kill at the
// N-th job admission is how a test kills a worker mid-campaign).
func fleetWorkerMain() int {
	if _, err := fault.ActivateFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		return 2
	}
	server, err := srv.New(srv.Config{Workers: 1, MaxScale: 14})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		return 1
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	server.Start()
	hs := &http.Server{Handler: server.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go hs.Serve(ln)
	fmt.Println(ln.Addr().String())
	<-sigc
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	code := 0
	if err := server.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		code = 1
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		code = 1
	}
	return code
}

// fleetWorker is one re-executed worker process.
type fleetWorker struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
}

// startFleetWorker launches a worker with the given fault schedule
// ("" for none) and waits for it to publish its address.
func startFleetWorker(t *testing.T, faults string) *fleetWorker {
	t.Helper()
	w := &fleetWorker{cmd: exec.Command(os.Args[0])}
	w.cmd.Env = append(os.Environ(), "FIGURES_FLEET_WORKER=1", "COBRA_FAULTS="+faults)
	w.cmd.Stderr = &w.stderr
	stdout, err := w.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if w.cmd.ProcessState == nil {
			w.cmd.Process.Kill()
			w.cmd.Wait()
		}
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("worker published no address: %v\n%s", err, w.stderr.String())
	}
	w.addr = strings.TrimSpace(line)
	return w
}

var stolenRE = regexp.MustCompile(`fleet: (\d+) cells dispatched, (\d+) completed, (\d+) stolen`)

// stop SIGTERMs a worker and demands a clean drain (exit 0).
func (w *fleetWorker) stop(t *testing.T) {
	t.Helper()
	w.cmd.Process.Signal(syscall.SIGTERM)
	if err := w.cmd.Wait(); err != nil {
		t.Fatalf("worker did not drain cleanly on SIGTERM: %v\n%s", err, w.stderr.String())
	}
}

// fleetLocalRun writes the local Fig 10 artifact every fleet run must
// reproduce byte for byte, and returns its bytes.
func fleetLocalRun(t *testing.T, dir string) []byte {
	t.Helper()
	golden := filepath.Join(dir, "golden.txt")
	code, _, stderr := runFigures(t, "-fig", "10", "-scale", "12", "-parallel", "1", "-manifest", "none", "-o", golden)
	if code != 0 {
		t.Fatalf("local run: exit %d\n%s", code, stderr)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// fleetSummary parses the coordinator's "fleet: D cells dispatched, C
// completed, S stolen" line.
func fleetSummary(t *testing.T, stderr string) (dispatched, stolen int) {
	t.Helper()
	m := stolenRE.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("coordinator printed no fleet summary:\n%s", stderr)
	}
	t.Log(m[0])
	dispatched, _ = strconv.Atoi(m[1])
	stolen, _ = strconv.Atoi(m[3])
	return dispatched, stolen
}

// TestFleetWorkerKilledMidCampaign scatters Fig 10 over two worker
// processes, one of which SIGKILLs itself at its 3rd job admission. The
// coordinator must steal the lost cell to the surviving worker and
// publish an artifact byte-identical to a local run.
func TestFleetWorkerKilledMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("process fleet test")
	}
	dir := t.TempDir()
	want := fleetLocalRun(t, dir)
	out := filepath.Join(dir, "fleet.txt")

	doomed := startFleetWorker(t, "srv.queue.admit:at=3:kill")
	survivor := startFleetWorker(t, "")
	code, _, stderr := runFigures(t, "-fig", "10", "-scale", "12", "-parallel", "2", "-manifest", "none",
		"-fleet", doomed.addr+","+survivor.addr, "-o", out)
	if code != 0 {
		t.Fatalf("fleet run: exit %d\n%s", code, stderr)
	}

	err := doomed.cmd.Wait()
	ws, ok := doomed.cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("doomed worker exited with %v, want SIGKILL at its 3rd admission\n%s", err, doomed.stderr.String())
	}
	dispatched, stolen := fleetSummary(t, stderr)
	if dispatched == 0 {
		t.Fatalf("no cell went to the fleet:\n%s", stderr)
	}
	if stolen == 0 {
		t.Fatalf("no cell was stolen from the killed worker:\n%s", stderr)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("fleet artifact differs from the local run:\n--- local ---\n%s\n--- fleet ---\n%s", want, got)
	}
	survivor.stop(t)
}

// TestFleetCoordinatorKilledResumes SIGKILLs the coordinator itself — a
// real figures process scattering over two workers — at its 5th
// checkpoint append, then resumes in-process against the same fleet.
// The 4 durable cells must replay without being dispatched again, and
// the artifact must byte-equal a local run.
func TestFleetCoordinatorKilledResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("process fleet test")
	}
	dir := t.TempDir()
	want := fleetLocalRun(t, dir)
	out := filepath.Join(dir, "fleet.txt")
	ckpt := filepath.Join(dir, "fleet.ckpt")

	a, b := startFleetWorker(t, ""), startFleetWorker(t, "")
	fleet := a.addr + "," + b.addr
	crashCampaign(t,
		"-fig 10 -scale 12 -parallel 2 -manifest none -fleet "+fleet+" -checkpoint "+ckpt+" -o "+out,
		"exp.journal.append:at=5:kill")
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("killed coordinator published an artifact: %v", err)
	}

	code, _, stderr := runFigures(t, "-fig", "10", "-scale", "12", "-parallel", "2", "-manifest", "none",
		"-fleet", fleet, "-checkpoint", ckpt, "-resume", "-o", out)
	if code != 0 {
		t.Fatalf("resumed fleet run: exit %d\n%s", code, stderr)
	}
	m := replayRE.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("resumed run printed no checkpoint summary:\n%s", stderr)
	}
	replayed, _ := strconv.Atoi(m[1])
	recorded, _ := strconv.Atoi(m[2])
	if replayed != 4 {
		t.Fatalf("resume replayed %d cells, want the 4 durable before the kill:\n%s", replayed, stderr)
	}
	if dispatched, _ := fleetSummary(t, stderr); dispatched == 0 || dispatched > recorded {
		t.Fatalf("resume dispatched %d cells for %d new ones; durable cells must not be re-dispatched:\n%s", dispatched, recorded, stderr)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed fleet artifact differs from the local run")
	}
	a.stop(t)
	b.stop(t)
}

var replayRE = regexp.MustCompile(`checkpoint \S+: (\d+) cells replayed, (\d+) newly recorded`)
