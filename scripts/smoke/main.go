// Command smoke runs a smoke test and fails when it tested nothing.
//
// Usage: go run ./scripts/smoke GO-TEST-FLAGS... PKG...
//
// It runs `go test -json GO-TEST-FLAGS... PKG...`, prints the tests'
// output as `go test -v` would, and exits non-zero unless go test
// succeeds AND every package argument (./...) reports at least one
// passing test. A -run or -fuzz pattern that matches nothing makes go
// test succeed without running anything, which would turn a smoke
// target green by accident; skipped tests do not count as passes
// either. Set GO to pick the go command.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// event is the part of a test2json event smoke reads.
type event struct {
	Action  string
	Package string
	Test    string
	Output  string
}

func main() {
	goCmd := os.Getenv("GO")
	if goCmd == "" {
		goCmd = "go"
	}
	args := os.Args[1:]
	want, err := packages(goCmd, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		os.Exit(2)
	}

	cmd := exec.Command(goCmd, append([]string{"test", "-json"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		os.Exit(2)
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		os.Exit(2)
	}
	passed := map[string]bool{}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev event
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			// Not an event (go test writes a few plain lines); pass it on.
			fmt.Println(sc.Text())
			continue
		}
		// Output fields carry the -v text verbatim, partial lines included.
		os.Stdout.WriteString(ev.Output)
		if ev.Action == "pass" && ev.Test != "" {
			passed[ev.Package] = true
		}
	}
	rc := 0
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		rc = 1
	}
	if err := cmd.Wait(); err != nil {
		rc = 1
	}
	for _, pkg := range want {
		if !passed[pkg] {
			fmt.Fprintf(os.Stderr, "smoke: no test passed in %s for: go test %s\n", pkg, strings.Join(args, " "))
			rc = 1
		}
	}
	os.Exit(rc)
}

// packages resolves the package arguments among args to import paths.
func packages(goCmd string, args []string) ([]string, error) {
	var pats []string
	for _, a := range args {
		if strings.HasPrefix(a, "./") {
			pats = append(pats, a)
		}
	}
	if len(pats) == 0 {
		return nil, fmt.Errorf("no ./ package argument")
	}
	out, err := exec.Command(goCmd, append([]string{"list"}, pats...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v", strings.Join(pats, " "), err)
	}
	return strings.Fields(string(out)), nil
}
