package exp

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cobra/internal/fault"
	"cobra/internal/fsx"
	"cobra/internal/sim"
)

func TestCellKeyFingerprint(t *testing.T) {
	a := CellKey{Figure: "suite", App: "PageRank", Input: "KRON", Scale: 20, Seed: 42, Scheme: "PB-SW", Bins: 256, Arch: "abc"}
	b := a
	if a.fingerprint() != b.fingerprint() {
		t.Fatal("equal keys, different fingerprints")
	}
	b.Bins = 4096
	if a.fingerprint() == b.fingerprint() {
		t.Fatal("bin count not part of the fingerprint")
	}
	c := a
	c.Arch = "def"
	if a.fingerprint() == c.fingerprint() {
		t.Fatal("arch not part of the fingerprint")
	}
}

func TestArchFingerprintSensitivity(t *testing.T) {
	a := sim.DefaultArch()
	b := sim.DefaultArch()
	if ArchFingerprint(a) != ArchFingerprint(b) {
		t.Fatal("identical archs, different fingerprints")
	}
	b.CPU.MSHRs++
	if ArchFingerprint(a) == ArchFingerprint(b) {
		t.Fatal("MSHR change not reflected in arch fingerprint")
	}
	if ArchFingerprint(a) == ArchFingerprint(a.WithCores(4)) {
		t.Fatal("core count not reflected in arch fingerprint")
	}
	// ArchFingerprint renders Arch's configuration fields by name; a
	// field added to Arch must be added there too, or cells recorded
	// under one value would replay under another.
	var fields []string
	at := reflect.TypeOf(sim.Arch{})
	for i := 0; i < at.NumField(); i++ {
		fields = append(fields, at.Field(i).Name)
	}
	if want := []string{"Mem", "CPU", "NumCores"}; !reflect.DeepEqual(fields, want) {
		t.Fatalf("sim.Arch fields are %v, ArchFingerprint covers %v", fields, want)
	}
}

func TestJournalRecordReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	k1 := CellKey{Figure: "f", App: "A", Input: "I", Scale: 12, Seed: 7, Scheme: "Baseline", Arch: "x"}
	k2 := k1
	k2.Scheme, k2.Bins = "PB-SW", 256
	m1 := sim.Metrics{App: "A", Cycles: 123.456789012345, NumBins: 1}
	m2 := sim.Metrics{App: "A", Cycles: 9.87e12, NumBins: 256}
	m2.Ctr.Instructions = 1<<63 + 12345 // must survive JSON exactly (not via float64)
	if err := j.Record(k1, m1); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(k2, m2); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("reloaded %d cells, want 2", r.Len())
	}
	got, ok := r.Lookup(k2)
	if !ok {
		t.Fatal("k2 missing after reload")
	}
	if got.Cycles != m2.Cycles || got.Ctr.Instructions != m2.Ctr.Instructions || got.NumBins != 256 {
		t.Fatalf("metrics changed across the journal: %+v", got)
	}
	if _, ok := r.Lookup(CellKey{Figure: "f", App: "other"}); ok {
		t.Fatal("lookup hit for an unknown key")
	}
}

// TestJournalFreshOpenDiscards: opening without resume starts a new
// campaign — old entries must not be replayed.
func TestJournalFreshOpenDiscards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, _ := OpenJournal(path, false)
	k := CellKey{Figure: "f", App: "A"}
	if err := j.Record(k, sim.Metrics{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 0 {
		t.Fatal("fresh open replayed stale entries")
	}
}

// TestJournalTornTailTolerated: a crash mid-append leaves a truncated
// final line; resume must keep every complete entry and drop the tail.
func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, _ := OpenJournal(path, false)
	k := CellKey{Figure: "f", App: "A", Scheme: "Baseline"}
	if err := j.Record(k, sim.Metrics{Cycles: 42}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate the crash: append half a JSON line without newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"k":"fig=half|app=`)
	f.Close()

	r, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("kept %d cells, want 1", r.Len())
	}
	if _, ok := r.Lookup(k); !ok {
		t.Fatal("complete entry lost")
	}
}

// TestJournalInteriorCorruptionRejected: damage before the final line
// means the journal cannot be trusted — resume must refuse loudly
// rather than silently skip simulations.
func TestJournalInteriorCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, _ := OpenJournal(path, false)
	j.Record(CellKey{Figure: "f", App: "A"}, sim.Metrics{Cycles: 1})
	j.Record(CellKey{Figure: "f", App: "B"}, sim.Metrics{Cycles: 2})
	j.Close()
	data, _ := os.ReadFile(path)
	data[2] = 0xff // damage the first line
	os.WriteFile(path, data, 0o644)
	if _, err := OpenJournal(path, true); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("err = %v, want ErrJournalCorrupt", err)
	}
}

// TestJournalResumeMissingFile: resuming with no journal yet is a
// fresh start, not an error (first run of a campaign).
func TestJournalResumeMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.ckpt")
	j, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Fatal("phantom entries")
	}
}

// TestCampaignInterruptResume is the acceptance test for the tentpole:
// cancel a Fig10 campaign after K completed cells, then resume from the
// journal — the final table bytes must equal an uninterrupted serial
// run, and the resumed run must replay (not re-simulate) the completed
// cells.
func TestCampaignInterruptResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign resume test skipped in -short mode")
	}
	o := tinyOpts()
	o.Parallel = 1

	// Reference: uninterrupted serial run, no journal.
	ResetMemos()
	want := renderFigure(t, Fig10, o)

	// Interrupted run: cancel the campaign after K recorded cells.
	path := filepath.Join(t.TempDir(), "fig10.ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	const stopAfter = 7
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.onRecord = func(total uint64) {
		if total == stopAfter {
			cancel()
		}
	}
	ResetMemos()
	run1 := o
	run1.Ctx = ctx
	run1.Journal = j
	_, err = Fig10(run1)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted campaign: err = %v, want ErrInterrupted", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: completed cells replay from the journal, the rest run.
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() < stopAfter {
		t.Fatalf("journal holds %d cells, want >= %d", j2.Len(), stopAfter)
	}
	ResetMemos()
	run2 := o
	run2.Journal = j2
	got := renderFigure(t, Fig10, run2)
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
	replayed, recorded := j2.Stats()
	if replayed < stopAfter {
		t.Fatalf("resume replayed %d cells, want >= %d", replayed, stopAfter)
	}
	if recorded == 0 {
		t.Fatal("resume recorded no new cells — interrupt happened after completion?")
	}

	// A third run with the now-complete journal is pure replay.
	j3, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	ResetMemos()
	run3 := o
	run3.Journal = j3
	again := renderFigure(t, Fig10, run3)
	if !bytes.Equal(want, again) {
		t.Fatal("pure-replay output differs")
	}
	if _, rec := j3.Stats(); rec != 0 {
		t.Fatalf("pure replay still simulated %d cells", rec)
	}
}

// TestJournalResumeTruncatesTornTail: the torn bytes are physically
// removed on resume, so appends after resume land on a clean boundary
// and the next resume sees zero damage.
func TestJournalResumeTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, _ := OpenJournal(path, false)
	k1 := CellKey{Figure: "f", App: "A"}
	if err := j.Record(k1, sim.Metrics{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString(`{"k":"torn`)
	f.Close()

	r, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	k2 := CellKey{Figure: "f", App: "B"}
	if err := r.Record(k2, sim.Metrics{Cycles: 2}); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// Had the tail survived, the new entry would have fused with it into
	// interior corruption; a clean resume proves it was truncated away.
	r2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("journal corrupt after append-past-torn-tail: %v", err)
	}
	defer r2.Close()
	if r2.Len() != 2 {
		t.Fatalf("kept %d cells, want 2", r2.Len())
	}
	for _, k := range []CellKey{k1, k2} {
		if _, ok := r2.Lookup(k); !ok {
			t.Fatalf("cell %v lost", k)
		}
	}
}

// TestJournalAppendFaultRollsBack drives the exp.journal.append and
// exp.journal.sync injection points: a failed append (torn write,
// ENOSPC, failed fsync) must roll the file back to the last good entry
// so the journal stays loadable with every previously recorded cell.
func TestJournalAppendFaultRollsBack(t *testing.T) {
	for _, tc := range []struct {
		name     string
		spec     string
		diskFull bool
	}{
		{"torn append", "exp.journal.append:at=1:err=short", true},
		{"append enospc", "exp.journal.append:at=1:err=enospc", true},
		{"failed fsync", "exp.journal.sync:at=1:err=eio", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			j, err := OpenJournal(path, false)
			if err != nil {
				t.Fatal(err)
			}
			k1 := CellKey{Figure: "f", App: "A"}
			if err := j.Record(k1, sim.Metrics{Cycles: 1}); err != nil {
				t.Fatal(err)
			}
			plan, err := fault.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			fault.Activate(plan)
			err = j.Record(CellKey{Figure: "f", App: "B"}, sim.Metrics{Cycles: 2})
			fault.Deactivate()
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("err = %v, want injected", err)
			}
			if errors.Is(err, fsx.ErrDiskFull) != tc.diskFull {
				t.Fatalf("ErrDiskFull classification = %v, want %v (err: %v)", !tc.diskFull, tc.diskFull, err)
			}
			// The journal keeps working after the rollback.
			k3 := CellKey{Figure: "f", App: "C"}
			if err := j.Record(k3, sim.Metrics{Cycles: 3}); err != nil {
				t.Fatalf("journal unusable after rollback: %v", err)
			}
			j.Close()

			r, err := OpenJournal(path, true)
			if err != nil {
				t.Fatalf("journal corrupt after rolled-back append: %v", err)
			}
			defer r.Close()
			if r.Len() != 2 {
				t.Fatalf("kept %d cells, want 2 (A and C)", r.Len())
			}
			if _, ok := r.Lookup(k1); !ok {
				t.Fatal("pre-fault entry lost")
			}
			if _, ok := r.Lookup(k3); !ok {
				t.Fatal("post-rollback entry lost")
			}
		})
	}
}

// TestCompactJournal: duplicates collapse last-wins, torn tails drop,
// and the compacted journal replays identically to the original.
func TestCompactJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, _ := OpenJournal(path, false)
	kA := CellKey{Figure: "f", App: "A"}
	kB := CellKey{Figure: "f", App: "B"}
	j.Record(kA, sim.Metrics{Cycles: 1})
	j.Record(kB, sim.Metrics{Cycles: 2})
	j.Record(kA, sim.Metrics{Cycles: 10}) // supersedes the first A
	j.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString(`{"k":"torn`)
	f.Close()

	kept, dropped, err := CompactJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 || dropped != 2 { // 1 superseded duplicate + 1 torn tail
		t.Fatalf("kept=%d dropped=%d, want 2/2", kept, dropped)
	}

	r, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("compacted journal holds %d cells, want 2", r.Len())
	}
	if m, ok := r.Lookup(kA); !ok || m.Cycles != 10 {
		t.Fatalf("compaction lost last-wins semantics: %+v %v", m, ok)
	}
	if m, ok := r.Lookup(kB); !ok || m.Cycles != 2 {
		t.Fatalf("unique entry damaged: %+v %v", m, ok)
	}

	// Compacting an already-compact journal is a no-op (bytes untouched).
	before, _ := os.ReadFile(path)
	kept, dropped, err = CompactJournal(path)
	if err != nil || kept != 2 || dropped != 0 {
		t.Fatalf("second compaction: kept=%d dropped=%d err=%v", kept, dropped, err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("idempotent compaction rewrote the file")
	}
}

// TestCompactJournalRefusesCorrupt: interior damage is not something
// compaction should paper over.
func TestCompactJournalRefusesCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, _ := OpenJournal(path, false)
	j.Record(CellKey{Figure: "f", App: "A"}, sim.Metrics{Cycles: 1})
	j.Record(CellKey{Figure: "f", App: "B"}, sim.Metrics{Cycles: 2})
	j.Close()
	data, _ := os.ReadFile(path)
	data[2] = 0xff
	os.WriteFile(path, data, 0o644)
	if _, _, err := CompactJournal(path); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("err = %v, want ErrJournalCorrupt", err)
	}
}

// TestCampaignReplayAfterCompaction: a compacted checkpoint drives a
// byte-identical pure-replay campaign — the satellite's acceptance.
func TestCampaignReplayAfterCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign compaction test skipped in -short mode")
	}
	o := tinyOpts()
	o.Parallel = 1

	path := filepath.Join(t.TempDir(), "fig10.ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ResetMemos()
	run1 := o
	run1.Journal = j
	want := renderFigure(t, Fig10, run1)
	j.Close()

	if _, _, err := CompactJournal(path); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	ResetMemos()
	run2 := o
	run2.Journal = j2
	got := renderFigure(t, Fig10, run2)
	if !bytes.Equal(want, got) {
		t.Fatal("replay from compacted journal differs from original run")
	}
	if _, rec := j2.Stats(); rec != 0 {
		t.Fatalf("replay from compacted journal still simulated %d cells", rec)
	}
}

// TestJournaledPassThrough: without a journal, o.journaled is a plain
// call; with one, errors are not recorded.
func TestJournaledPassThrough(t *testing.T) {
	o := tinyOpts()
	m, err := o.journaled(CellKey{Figure: "x"}, func() (sim.Metrics, error) {
		return sim.Metrics{Cycles: 5}, nil
	})
	if err != nil || m.Cycles != 5 {
		t.Fatalf("pass-through broken: %v %v", m, err)
	}

	path := filepath.Join(t.TempDir(), "j.ckpt")
	j, _ := OpenJournal(path, false)
	defer j.Close()
	o.Journal = j
	boom := errors.New("sim failed")
	if _, err := o.journaled(CellKey{Figure: "x", App: "A"}, func() (sim.Metrics, error) {
		return sim.Metrics{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if j.Len() != 0 {
		t.Fatal("failed cell recorded as completed")
	}
	// Error text should be the cell's own error, not journal noise.
	if !strings.Contains(boom.Error(), "sim failed") {
		t.Fatal("unexpected")
	}
}

// TestJournalDoErrorNotStored: a failed run is not recorded, so the
// next Do for the key runs again; a success is then served as a hit.
// A nil journal stores nothing.
func TestJournalDoErrorNotStored(t *testing.T) {
	for _, path := range []string{"", filepath.Join(t.TempDir(), "j.ckpt")} {
		j, err := OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		k := CellKey{Figure: "x", App: "A"}
		boom := errors.New("sim failed")
		if _, hit, err := j.Do(k, func() (sim.Metrics, error) { return sim.Metrics{Cycles: 1}, boom }); !errors.Is(err, boom) || hit {
			t.Fatalf("%q: failed run: hit=%v err=%v", path, hit, err)
		}
		if _, ok := j.Lookup(k); ok {
			t.Fatalf("%q: failed run was stored", path)
		}
		runs := 0
		for i, wantHit := range []bool{false, true} {
			m, hit, err := j.Do(k, func() (sim.Metrics, error) {
				runs++
				return sim.Metrics{Cycles: 7}, nil
			})
			if err != nil || hit != wantHit || m.Cycles != 7 || runs != 1 {
				t.Fatalf("%q: Do #%d: m=%v hit=%v err=%v runs=%d", path, i+1, m.Cycles, hit, err, runs)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var none *Journal
	if err := none.Record(CellKey{}, sim.Metrics{Cycles: 3}); err != nil {
		t.Fatal(err)
	}
	if _, ok := none.Lookup(CellKey{}); ok {
		t.Fatal("nil journal hit")
	}
	if m, hit, err := none.Do(CellKey{}, func() (sim.Metrics, error) { return sim.Metrics{Cycles: 3}, nil }); hit || err != nil || m.Cycles != 3 {
		t.Fatalf("nil journal Do: m=%v hit=%v err=%v", m.Cycles, hit, err)
	}
}

// TestJournalDoPanicWakesJoiners: a run that panics fails the Do
// waiting on it with an error instead of stranding it, stores nothing,
// and lets the panic go on.
func TestJournalDoPanicWakesJoiners(t *testing.T) {
	j, err := OpenJournal("", false)
	if err != nil {
		t.Fatal(err)
	}
	k := CellKey{Figure: "x", App: "P"}
	joining, release := make(chan struct{}), make(chan struct{})
	j.onJoin = func() { close(joining) }
	started := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		j.Do(k, func() (sim.Metrics, error) {
			close(started)
			<-release
			panic("cell blew up")
		})
	}()
	<-started
	joined := make(chan error, 1)
	go func() {
		_, _, err := j.Do(k, func() (sim.Metrics, error) {
			return sim.Metrics{}, errors.New("joiner ran its own cell")
		})
		joined <- err
	}()
	<-joining
	close(release)
	if r := <-recovered; r == nil {
		t.Fatal("panic did not propagate out of Do")
	}
	select {
	case err := <-joined:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("joiner err = %v, want the run's panic", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the joiner of a panicked run was never woken")
	}
	if j.Len() != 0 {
		t.Fatal("panicked run was stored")
	}
}

// TestJournalDoRunsOutsideLock: a run for key A that cannot finish
// until key B's run starts completes, so runs never hold the
// journal's lock.
func TestJournalDoRunsOutsideLock(t *testing.T) {
	j, err := OpenJournal("", false)
	if err != nil {
		t.Fatal(err)
	}
	aStarted, bStarted := make(chan struct{}), make(chan struct{})
	done := make(chan error, 2)
	go func() {
		_, _, err := j.Do(CellKey{App: "A"}, func() (sim.Metrics, error) {
			close(aStarted)
			<-bStarted
			return sim.Metrics{}, nil
		})
		done <- err
	}()
	go func() {
		<-aStarted
		_, _, err := j.Do(CellKey{App: "B"}, func() (sim.Metrics, error) {
			close(bStarted)
			return sim.Metrics{}, nil
		})
		done <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Do for A and B deadlocked: a run holds the journal lock")
		}
	}
	if j.Len() != 2 {
		t.Fatalf("stored %d cells, want 2", j.Len())
	}
}
