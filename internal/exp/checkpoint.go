package exp

// Checkpoint journal: crash-safe campaign resume.
//
// A full figure campaign is hours of independent simulation cells; a
// Ctrl-C, OOM kill, or panicking cell used to throw all completed work
// away. The Journal records every finished cell as one JSON line —
// keyed by a stable fingerprint of everything that determines the
// cell's metrics (figure, app, input, scale, seed, scheme, bins, arch)
// — in an append-only file that is fsync'd after every append. A
// resumed run (`figures -resume`) looks each cell up before simulating:
// hits replay the recorded sim.Metrics verbatim, so the resumed
// output is byte-identical to an uninterrupted run (Go's JSON float64
// encoding round-trips exactly, and every derived table string is a
// pure function of the metrics).
//
// Crash tolerance on the journal itself: a process killed mid-append
// leaves at most one truncated final line, which Open(resume=true)
// drops — and physically truncates away, so later appends never fuse
// with the torn bytes into interior damage. A *surviving* process
// whose append fails midway (ENOSPC, short write, failed fsync — all
// injectable via the fault registry) rolls the file back to the last
// good entry for the same reason. Corruption anywhere other than the
// tail is an error — a journal with a damaged interior is not
// trustworthy enough to skip work from.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"time"

	"cobra/internal/fault"
	"cobra/internal/fsx"
	"cobra/internal/obsv"
	"cobra/internal/sim"
)

// CellKey is the stable identity of one simulation cell. Two cells with
// equal keys are guaranteed to produce identical metrics (simulations
// are deterministic functions of these fields), so a journal hit can
// replay the recorded result.
type CellKey struct {
	Figure string // campaign unit ("suite", "Figure 4", "Ablation A2", ...)
	App    string
	Input  string
	Scale  int
	Seed   uint64
	Scheme string // scheme plus any variant knobs ("COBRA[evict=8]")
	Bins   int
	Cores  int    // simulated core count (0 and 1 both mean single-core)
	Arch   string // ArchFingerprint of the cell's architecture
	// Window identifies one window of a streamed run, 1-based; 0 means
	// an offline (whole-workload) cell. Windows checkpoint individually,
	// so a killed streamed run resumes at window granularity.
	Window int
}

// fingerprint renders the key as the canonical journal string. Cores
// is folded to its effective value (0 -> 1) so callers that never set
// it produce the same key as callers that spell out single-core. The
// window suffix appears only for streamed windows, keeping every
// offline fingerprint byte-identical to the pre-streaming format.
func (k CellKey) fingerprint() string {
	cores := k.Cores
	if cores <= 1 {
		cores = 1
	}
	fp := fmt.Sprintf("fig=%s|app=%s|in=%s|scale=%d|seed=%d|scheme=%s|bins=%d|cores=%d|arch=%s",
		k.Figure, k.App, k.Input, k.Scale, k.Seed, k.Scheme, k.Bins, cores, k.Arch)
	if k.Window > 0 {
		fp += fmt.Sprintf("|win=%d", k.Window)
	}
	return fp
}

// Fingerprint is the exported form of the canonical cell identity
// string. The cobrad service keys its content-addressed result cache
// on it, so a service cache journal and a figures checkpoint journal
// share one address space (and one on-disk format).
func (k CellKey) Fingerprint() string { return k.fingerprint() }

// ArchFingerprint digests an architecture configuration into a short
// stable token. Any config change (cache geometry, policies, MSHRs,
// NUCA, prefetcher) changes the fingerprint, so checkpoints recorded
// under one architecture are never replayed under another.
//
// It digests Arch's fields by name, in the rendering "%+v" gave when
// Arch still carried a test-only switch: that switch's always-false
// tail stays, so the fingerprints journals and the result cache are
// keyed on do not change. A field added to Arch must be added here;
// TestArchFingerprintSensitivity fails until it is.
func ArchFingerprint(a sim.Arch) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "{Mem:%+v CPU:%+v NumCores:%d opAtATime:false}", a.Mem, a.CPU, a.NumCores)
	return fmt.Sprintf("%016x", h.Sum64())
}

// journalEntry is one line of the JSONL journal.
type journalEntry struct {
	K string      `json:"k"`
	M sim.Metrics `json:"m"`
}

// ErrJournalCorrupt reports interior damage in a checkpoint journal
// (anything other than a truncated final line).
var ErrJournalCorrupt = errors.New("exp: checkpoint journal corrupt")

// Journal is the one store of completed cells: campaigns, the cobrad
// result cache and fleet runs all look cells up, compute them once and
// record them through it. A journal opened on a path is the
// append-only, fsync'd record described above; one opened on "" lives
// in memory only. A nil *Journal is no store at all: Lookup misses,
// Record does nothing and Do just runs. Safe for concurrent use by
// parallel cells.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string // "" for an in-memory journal
	cells    map[string]sim.Metrics
	inflight map[string]*flight // Do runs under way, by fingerprint

	// size is the length of the durable, well-formed prefix. A failed
	// append truncates back to it, so the on-disk journal is damaged in
	// at most its final (in-flight) line at any instant.
	size   int64
	broken error // a rollback that itself failed; journal unusable

	replayed uint64 // lookups and Do calls served a recorded or joined cell
	recorded uint64 // cells recorded this run

	// onRecord, when set, observes the total number of appends after
	// each Record — the test hook that cancels a campaign after exactly
	// K completed cells.
	onRecord func(total uint64)
	// onJoin, when set, is called by a Do about to wait on another's
	// run — the test hook that settles a run only once a joiner waits.
	onJoin func()
}

// OpenJournal opens (or creates) the journal at path. With resume=true
// any existing entries are loaded and will be replayed; with
// resume=false an existing journal is discarded and the campaign
// starts from scratch. An empty path opens an in-memory journal that
// starts empty and writes nothing.
func OpenJournal(path string, resume bool) (*Journal, error) {
	j := &Journal{path: path, cells: map[string]sim.Metrics{}, inflight: map[string]*flight{}}
	if path == "" {
		return j, nil
	}
	if resume {
		scan, err := scanJournal(path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		if scan != nil {
			j.cells = scan.cells
			j.size = scan.goodSize
		}
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("exp: opening checkpoint journal: %w", err)
	}
	// Physically drop any torn tail before the first append: O_APPEND
	// writes land at EOF, and a new entry fused onto half a line would
	// turn a tolerable torn tail into refused interior corruption on
	// the next resume.
	if resume {
		if err := f.Truncate(j.size); err != nil {
			f.Close()
			return nil, fmt.Errorf("exp: dropping torn checkpoint tail: %w", err)
		}
	}
	j.f = f
	return j, nil
}

// journalScan is the result of reading a journal file tolerantly:
// every complete well-formed line, the byte length of that good
// prefix, and whether a torn tail was dropped.
type journalScan struct {
	order    []string // keys in first-appearance order (for compaction)
	cells    map[string]sim.Metrics
	entries  int   // complete entries parsed (duplicates included)
	goodSize int64 // bytes of intact prefix
	torn     bool  // a trailing partial or damaged line was dropped
}

// scanJournal reads every complete entry from a journal file. A
// truncated or damaged final line (crash or torn write mid-append) is
// tolerated, reported via torn, and excluded from goodSize; damage
// anywhere else is ErrJournalCorrupt. A missing file propagates
// os.ErrNotExist.
func scanJournal(path string) (*journalScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("exp: reading checkpoint journal: %w", err)
	}
	scan := &journalScan{cells: map[string]sim.Metrics{}}
	lineNo := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated trailing bytes: a crash mid-append.
			scan.torn = true
			break
		}
		line := data[off : off+nl]
		end := off + nl + 1
		lineNo++
		if len(line) > 0 {
			var e journalEntry
			if err := json.Unmarshal(line, &e); err != nil || e.K == "" {
				if end == len(data) {
					// Complete-but-damaged final line (e.g. a torn write
					// whose partial bytes happened to end in '\n', or a
					// crashed writer interleaving) — drop it like an
					// unterminated tail; the cell re-runs.
					scan.torn = true
					break
				}
				return nil, fmt.Errorf("%w: %s line %d", ErrJournalCorrupt, path, lineNo)
			}
			if _, seen := scan.cells[e.K]; !seen {
				scan.order = append(scan.order, e.K)
			}
			scan.cells[e.K] = e.M
			scan.entries++
		}
		scan.goodSize = int64(end)
		off = end
	}
	return scan, nil
}

// Lookup returns the recorded metrics for key, if the cell already
// completed in a previous (or the current) run.
func (j *Journal) Lookup(key CellKey) (sim.Metrics, bool) {
	if j == nil {
		return sim.Metrics{}, false
	}
	fp := key.fingerprint()
	j.mu.Lock()
	defer j.mu.Unlock()
	m, ok := j.cells[fp]
	if ok {
		j.replayed++
	}
	return m, ok
}

// Record appends one completed cell and fsyncs the journal, so the
// entry survives any subsequent crash. Append-only + O_APPEND keeps
// concurrent recorders from interleaving partial lines. A failed
// append (ENOSPC, short write, failed fsync — each behind a named
// fault injection point) rolls the file back to the last good entry,
// so an error can cost at most the entry being written, never the
// journal prefix. An in-memory journal only stores the cell.
func (j *Journal) Record(key CellKey, m sim.Metrics) error {
	if j == nil {
		return nil
	}
	fp := key.fingerprint()
	var line []byte
	if j.path != "" {
		var err error
		if line, err = json.Marshal(journalEntry{K: fp, M: m}); err != nil {
			return fmt.Errorf("exp: encoding checkpoint entry: %w", err)
		}
		line = append(line, '\n')
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if line != nil {
		if err := j.append(line); err != nil {
			return err
		}
	}
	j.cells[fp] = m
	j.recorded++
	if j.onRecord != nil {
		j.onRecord(j.recorded)
	}
	return nil
}

// append writes one entry line and fsyncs it, rolling back on
// failure. Caller holds j.mu.
func (j *Journal) append(line []byte) error {
	if j.broken != nil {
		return fmt.Errorf("exp: checkpoint journal unusable after failed rollback: %w", j.broken)
	}
	if _, err := fault.Writer(fault.PointJournalAppend, io.Writer(j.f)).Write(line); err != nil {
		return j.rollback("appending checkpoint entry", err)
	}
	if err := fault.Hit(fault.PointJournalSync); err != nil {
		return j.rollback("syncing checkpoint journal", err)
	}
	if err := j.f.Sync(); err != nil {
		return j.rollback("syncing checkpoint journal", err)
	}
	j.size += int64(len(line))
	return nil
}

// flight is one Do run under way; joiners wait on done, then read m
// and err.
type flight struct {
	done chan struct{}
	m    sim.Metrics
	err  error
}

// Do returns key's recorded metrics, joins a run of the same
// fingerprint already under way, or calls run and records what it
// returns; hit reports a recorded or joined result. Errors are never
// stored: a failed run fails its joiners, and the next Do runs again.
// run executes outside j.mu, so cells with different keys never wait
// on each other, and the flight settles from a defer, so a run that
// panics wakes every joiner with an error before the panic goes on.
func (j *Journal) Do(key CellKey, run func() (sim.Metrics, error)) (m sim.Metrics, hit bool, err error) {
	if j == nil {
		m, err = run()
		return m, false, err
	}
	fp := key.fingerprint()
	j.mu.Lock()
	if m, ok := j.cells[fp]; ok {
		j.replayed++
		j.mu.Unlock()
		return m, true, nil
	}
	if f := j.inflight[fp]; f != nil {
		j.mu.Unlock()
		if j.onJoin != nil {
			j.onJoin()
		}
		<-f.done
		if f.err != nil {
			return sim.Metrics{}, false, f.err
		}
		j.mu.Lock()
		j.replayed++
		j.mu.Unlock()
		return f.m, true, nil
	}
	// The panic error stands until run returns and overwrites it.
	f := &flight{done: make(chan struct{}), err: fmt.Errorf("exp: cell %s panicked", fp)}
	j.inflight[fp] = f
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		delete(j.inflight, fp)
		j.mu.Unlock()
		close(f.done)
	}()
	m, err = run()
	if err == nil {
		err = j.Record(key, m)
	}
	if err != nil {
		m = sim.Metrics{}
	}
	f.m, f.err = m, err
	return m, false, err
}

// rollback restores the journal to its last good prefix after a failed
// append and returns the classified append error. If the truncate
// itself fails the journal is marked unusable — better to refuse
// further appends than to fuse new entries onto torn bytes. Caller
// holds j.mu.
func (j *Journal) rollback(stage string, cause error) error {
	cause = fmt.Errorf("exp: %s: %w", stage, fsx.WrapDiskFull(cause))
	if terr := j.f.Truncate(j.size); terr != nil {
		j.broken = fmt.Errorf("%v (rollback failed: %v)", cause, terr)
		return j.broken
	}
	return cause
}

// Len returns the number of distinct completed cells known.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cells)
}

// Stats reports how many cells were replayed from the journal (a Do
// that joined a run under way counts too) and how many were newly
// recorded during this run.
func (j *Journal) Stats() (replayed, recorded uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replayed, j.recorded
}

// Close flushes and closes the journal file. The journal must not be
// used afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// journaled runs one simulation cell through o's cell store, o.Journal:
// a stored (or joined) result replays without simulating; a miss
// offers the cell to o.Remote and falls back to the local simulator
// when the remote declines it, and the result is recorded before
// returning. The key's Scale and Seed are always o's; Cores (when 0)
// and Arch (when empty) come from o.Arch, so a caller that runs a
// modified architecture (the ablations) passes its own fingerprint.
func (o Opts) journaled(k CellKey, run func() (sim.Metrics, error)) (sim.Metrics, error) {
	m, _, err := o.doCell(k, run)
	return m, err
}

// doCell is journaled that also reports whether the cell replayed.
func (o Opts) doCell(k CellKey, run func() (sim.Metrics, error)) (m sim.Metrics, hit bool, err error) {
	k.Scale, k.Seed = o.Scale, o.Seed
	if k.Cores == 0 {
		k.Cores = o.Arch.Cores()
	}
	if k.Arch == "" {
		k.Arch = ArchFingerprint(o.Arch)
	}
	m, hit, err = o.do(k, func() (sim.Metrics, error) {
		m, ran, err := o.remote(k)
		if !ran {
			m, err = o.observed(k, run)
		}
		return m, err
	})
	switch {
	case hit:
		obsv.Default().Counter("exp.checkpoint.replayed").Add(1)
		o.Progress.Replayed()
		o.Events.Emit("cell_replay", cellFields(k, 0, nil))
	case err == nil && o.Journal != nil:
		obsv.Default().Counter("exp.checkpoint.recorded").Add(1)
	}
	return m, hit, err
}

// do is the one compute path of every cell and streamed window:
// o.Journal's Do around run, with the completion fault point
// (fault.PointCellComplete) between a successful run and the record. A
// fired fault discards the result, and Do never stores an error.
func (o Opts) do(k CellKey, run func() (sim.Metrics, error)) (sim.Metrics, bool, error) {
	return o.Journal.Do(k, func() (sim.Metrics, error) {
		m, err := run()
		if err == nil {
			err = fault.Hit(fault.PointCellComplete)
		}
		return m, err
	})
}

// cell runs one plain-scheme cell (sim.Run's default CobraOpt) through
// journaled. The cell's key and its run both derive from the same
// (fig, app, scheme, bins, arch), so a figure names each cell's scheme
// once; only CobraOpt-variant cells build their own key and closure.
func (o Opts) cell(fig string, app *sim.App, id sim.SchemeID, bins int, arch sim.Arch) (sim.Metrics, error) {
	k := CellKey{Figure: fig, App: app.Name, Input: app.InputName, Scheme: string(id.Scheme()), Bins: bins,
		Arch: ArchFingerprint(arch)}
	return o.journaled(k, func() (sim.Metrics, error) { return sim.Run(app, id, bins, arch) })
}

// remote offers one cell to o.Remote. ran=false means the cell was
// declined (or no remote is configured) and must run locally; a
// declined cell never carries an error.
func (o Opts) remote(k CellKey) (m sim.Metrics, ran bool, err error) {
	if o.Remote == nil {
		return sim.Metrics{}, false, nil
	}
	start := time.Now()
	m, ok, err := o.Remote.RunCell(o.ctx(), k)
	if !ok {
		obsv.Default().Counter("exp.cells.remote_declined").Add(1)
		return sim.Metrics{}, false, nil
	}
	elapsed := time.Since(start)
	if reg := obsv.Default(); reg != nil {
		reg.Counter("exp.cells.remote").Add(1)
		reg.Histogram("exp.cell.remote_wall").Observe(elapsed)
	}
	if err != nil {
		o.Events.Emit("cell_remote_error", cellFields(k, elapsed, err))
	} else {
		o.Events.Emit("cell_remote", cellFields(k, elapsed, nil))
	}
	return m, true, err
}

// observed runs one simulation cell with per-cell observability: the
// simulation-only latency histogram ("exp.cell.sim_wall" — the pool's
// "exp.cell.wall" also covers replays and app builds) and a cell_done
// / cell_error event carrying the cell identity and latency. With
// observability disabled it is a plain call.
func (o Opts) observed(k CellKey, run func() (sim.Metrics, error)) (sim.Metrics, error) {
	reg := obsv.Default()
	if reg == nil && o.Events == nil {
		return run()
	}
	start := time.Now()
	m, err := run()
	elapsed := time.Since(start)
	if reg != nil {
		reg.Histogram("exp.cell.sim_wall").Observe(elapsed)
	}
	if err != nil {
		o.Events.Emit("cell_error", cellFields(k, elapsed, err))
	} else {
		o.Events.Emit("cell_done", cellFields(k, elapsed, nil))
	}
	return m, err
}

// cellFields renders a cell identity (plus optional latency and error)
// as JSONL event fields.
func cellFields(k CellKey, elapsed time.Duration, err error) map[string]any {
	f := map[string]any{
		"figure": k.Figure,
		"app":    k.App,
		"input":  k.Input,
		"scheme": k.Scheme,
	}
	if k.Bins != 0 {
		f["bins"] = k.Bins
	}
	if elapsed > 0 {
		f["ms"] = float64(elapsed.Microseconds()) / 1000
	}
	if err != nil {
		f["error"] = err.Error()
	}
	return f
}
