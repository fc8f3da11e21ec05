package exp

// Pin of every campaign cell identity. Journal resume and the cobrad
// result cache both key on CellKey fingerprints, so a refactor of the
// figure drivers must leave every cell's identity byte-identical. The
// test runs the plain-scheme figures at a small scale through a remote
// runner that declines every cell (so each still runs locally) and
// records the fingerprint of each offered cell. Intended identity
// changes regenerate with
//
//	go test ./internal/exp -run TestCellFingerprints -update

import (
	"bytes"
	"context"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"cobra/internal/sim"
)

const fingerprintPath = "testdata/cell_fingerprints.txt"

// recordingRunner declines every cell after recording its fingerprint.
type recordingRunner struct {
	mu  sync.Mutex
	fps []string
}

func (r *recordingRunner) RunCell(_ context.Context, k CellKey) (sim.Metrics, bool, error) {
	r.mu.Lock()
	r.fps = append(r.fps, k.Fingerprint())
	r.mu.Unlock()
	return sim.Metrics{}, false, nil
}

func TestCellFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign fingerprint pin skipped in -short mode")
	}
	figs := []struct {
		name string
		fn   func(Opts) (*Table, error)
	}{
		{"2", Fig2}, {"4", Fig4}, {"t1", Table1}, {"10", Fig10}, {"14", Fig14},
		{"a1", AblationPrefetcher}, {"a2", AblationLLCPolicy}, {"a4", AblationMLP}, {"a6", AblationNUCA},
	}
	ResetMemos() // start from an empty input memo, as a new process does
	t.Cleanup(ResetMemos)
	rec := &recordingRunner{}
	o := Opts{Scale: 8, Seed: 42, Arch: sim.DefaultArch(), Parallel: 1, Remote: rec}
	for _, f := range figs {
		if _, err := f.fn(o); err != nil {
			t.Fatalf("figure %s: %v", f.name, err)
		}
	}
	sort.Strings(rec.fps)
	got := []byte(strings.Join(rec.fps, "\n") + "\n")

	if *updateGolden {
		if err := os.WriteFile(fingerprintPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", fingerprintPath, len(rec.fps))
		return
	}
	want, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", fingerprintPath, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cell fingerprints diverge from %s:\n%s", fingerprintPath, lineDiff(want, got))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got []byte) string {
	count := map[string]int{}
	for _, l := range strings.Split(string(want), "\n") {
		count[l]++
	}
	for _, l := range strings.Split(string(got), "\n") {
		count[l]--
	}
	var out []string
	for l, n := range count {
		switch {
		case n > 0:
			out = append(out, "- "+l)
		case n < 0:
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
