package dist

// Coordinator tests against in-process cobrad workers (srv.Server
// behind httptest). The contract under test is the one cmd/figures
// relies on: every gathered result is byte-identical to the local
// simulation of the same cell, worker failures translate to steals or
// local-fallback declines (never campaign errors), and the caller's
// cell store short-circuits re-dispatch on resume and for repeats.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cobra/internal/client"
	"cobra/internal/exp"
	"cobra/internal/mem"
	"cobra/internal/sim"
	"cobra/internal/srv"
)

// startWorker boots an in-process cobrad and returns its base URL.
func startWorker(t *testing.T) string {
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

// deadWorker serves 500 on every path — a worker that is reachable but
// broken (the client treats it like any availability failure).
func deadWorker(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// fastOpts makes worker failure cheap: no retries, no resubmits, no
// breaker, tight polling.
func fastOpts() client.Options {
	return client.Options{
		MaxRetries:       -1,
		Resubmits:        -1,
		BreakerThreshold: -1,
		PollFloor:        time.Millisecond,
		PollInterval:     20 * time.Millisecond,
	}
}

func newCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Client == (client.Options{}) {
		cfg.Client = fastOpts()
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}

// localMetrics simulates the cell in-process, the way exp campaigns do
// when RunCell declines.
func localMetrics(t *testing.T, k exp.CellKey) sim.Metrics {
	t.Helper()
	app, err := exp.BuildApp(k.App, k.Input, k.Scale, k.Seed)
	if err != nil {
		t.Fatal(err)
	}
	id, err := sim.ParseSchemeID(k.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	m, err := exp.RunScheme(app, id.Scheme(), k.Bins, sim.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustJSON renders metrics the way the artifact path consumes them;
// equality here is the byte-identity the fleet promises.
func mustJSON(t *testing.T, m sim.Metrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func testKey() exp.CellKey {
	return FleetCellKey(exp.RunSpec{
		App: "DegreeCount", Input: "URND", Scale: 8, Seed: 42, Cores: 1,
	}, sim.SchemeIDCOBRA)
}

func TestRunCellMatchesLocal(t *testing.T) {
	co := newCoordinator(t, Config{Addrs: []string{startWorker(t)}})
	k := testKey()
	got, ok, err := co.RunCell(context.Background(), k)
	if err != nil || !ok {
		t.Fatalf("RunCell: ok=%v err=%v", ok, err)
	}
	want := localMetrics(t, k)
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatalf("remote metrics diverge from local:\n remote %s\n local  %s",
			mustJSON(t, got), mustJSON(t, want))
	}
	info := co.Snapshot()
	if info.Dispatched != 1 || info.Completed != 1 || info.Gathered != 1 {
		t.Fatalf("snapshot: %+v", info)
	}
}

func TestDeclinesUnservable(t *testing.T) {
	// Dead address on purpose: a decline must never touch the network.
	co := newCoordinator(t, Config{Addrs: []string{"http://127.0.0.1:1"}})
	cases := map[string]exp.CellKey{
		"variant scheme": func() exp.CellKey {
			k := testKey()
			k.Scheme = "COBRA[evict=8]"
			return k
		}(),
		"foreign arch": func() exp.CellKey {
			k := testKey()
			k.Arch = "not-a-stock-fingerprint"
			return k
		}(),
		"scale out of range": func() exp.CellKey {
			k := testKey()
			k.Scale = exp.MaxScale + 1
			return k
		}(),
	}
	for name, k := range cases {
		if _, ok, err := co.RunCell(context.Background(), k); ok || err != nil {
			t.Fatalf("%s: want decline, got ok=%v err=%v", name, ok, err)
		}
	}
	if info := co.Snapshot(); info.Dispatched != 0 {
		t.Fatalf("unservable cells were dispatched: %+v", info)
	}
}

func TestStealFromDeadWorker(t *testing.T) {
	dead := deadWorker(t)
	co := newCoordinator(t, Config{Addrs: []string{dead, startWorker(t)}})
	k := testKey()
	got, ok, err := co.RunCell(context.Background(), k)
	if err != nil || !ok {
		t.Fatalf("RunCell: ok=%v err=%v", ok, err)
	}
	if mustJSON(t, got) != mustJSON(t, localMetrics(t, k)) {
		t.Fatal("stolen cell diverged from local metrics")
	}
	info := co.Snapshot()
	if info.Stolen != 1 || info.Completed != 1 || info.Failed != 1 {
		t.Fatalf("steal accounting: %+v", info)
	}
	if info.Workers[0].Healthy || !info.Workers[1].Healthy {
		t.Fatalf("health flags after steal: %+v", info.Workers)
	}
	if info.Workers[1].Stolen != 1 {
		t.Fatalf("node1 should have received the steal: %+v", info.Workers[1])
	}
}

func TestAllWorkersDownFallsBackLocal(t *testing.T) {
	co := newCoordinator(t, Config{Addrs: []string{deadWorker(t), deadWorker(t)}})
	_, ok, err := co.RunCell(context.Background(), testKey())
	if ok || err != nil {
		t.Fatalf("want local-fallback decline, got ok=%v err=%v", ok, err)
	}
	info := co.Snapshot()
	if info.Failed != 2 {
		t.Fatalf("both nodes should have been tried: %+v", info)
	}
	for _, n := range info.Workers {
		if n.Healthy {
			t.Fatalf("node %s should be marked down", n.Addr)
		}
	}
}

// fig2 renders Figure 2 (one Baseline cell per suite pair, every one
// fleet-servable) at the smallest scale under o.
func fig2(o exp.Opts) (string, error) {
	o.Scale, o.Seed, o.Arch, o.Parallel = exp.MinScale, 42, sim.DefaultArch(), 2
	tab, err := exp.Fig2(o)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	tab.Fprint(&b)
	return b.String(), nil
}

// TestJournalReplaySkipsDispatch: a campaign resumed from its journal
// replays every recorded cell from the caller's store, upstream of the
// coordinator, so none is dispatched.
func TestJournalReplaySkipsDispatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	j, err := exp.OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fig2(exp.Opts{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if j, err = exp.OpenJournal(path, true); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// Workers are all dead: a dispatch attempt would show up in the
	// snapshot.
	co := newCoordinator(t, Config{Addrs: []string{deadWorker(t)}})
	got, err := fig2(exp.Opts{Journal: j, Remote: co})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("journal replay diverged:\n%s\nwant:\n%s", got, want)
	}
	if info := co.Snapshot(); info.Dispatched != 0 {
		t.Fatalf("replayed cell was dispatched: %+v", info)
	}
	if replayed, recorded := j.Stats(); replayed != uint64(len(exp.DefaultSuite())) || recorded != 0 {
		t.Fatalf("resume replayed %d and recorded %d cells, want %d and 0", replayed, recorded, len(exp.DefaultSuite()))
	}
}

// TestDuplicateCellDedupes: two concurrent campaigns over one store
// send each repeated cell to the fleet once, and both gather the same
// bytes.
func TestDuplicateCellDedupes(t *testing.T) {
	co := newCoordinator(t, Config{Addrs: []string{startWorker(t)}})
	j, err := exp.OpenJournal("", false)
	if err != nil {
		t.Fatal(err)
	}
	o := exp.Opts{Journal: j, Remote: co}
	var wg sync.WaitGroup
	texts := make([]string, 2)
	errs := make([]error, 2)
	for i := range texts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			texts[i], errs[i] = fig2(o)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if texts[0] != texts[1] {
		t.Fatal("deduped result diverged")
	}
	cells := uint64(len(exp.DefaultSuite()))
	if info := co.Snapshot(); info.Dispatched != cells || info.Gathered != cells {
		t.Fatalf("want %d cells dispatched and gathered once each: %+v", cells, info)
	}
}

func TestProbeReadmitsRecoveredWorker(t *testing.T) {
	worker, err := srv.New(srv.Config{Workers: 2, QueueDepth: 16, DefaultScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	worker.Start()
	handler := worker.Handler()
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "flapping", http.StatusInternalServerError)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	co := newCoordinator(t, Config{Addrs: []string{ts.URL}, ProbeInterval: 10 * time.Millisecond})
	k := testKey()
	want := localMetrics(t, k)

	down.Store(true)
	if _, ok, err := co.RunCell(context.Background(), k); ok || err != nil {
		t.Fatalf("down worker: want decline, got ok=%v err=%v", ok, err)
	}

	down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if co.Snapshot().Workers[0].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never re-admitted the recovered worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, ok, err := co.RunCell(context.Background(), k)
	if err != nil || !ok {
		t.Fatalf("recovered worker: ok=%v err=%v", ok, err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("post-recovery metrics diverged")
	}
}

// TestSpecForServability pins which cells the fleet serves and how:
// stock architectures with and without NUCA, at one core (NumCores 0
// and 1 both spell it) and at 4 cores, become jobs carrying the right
// NUCA bit and core count; a prefetcher-off (Ablation A1) architecture
// and a variant scheme are declined.
func TestSpecForServability(t *testing.T) {
	co := newCoordinator(t, Config{Addrs: []string{"http://127.0.0.1:1"}})
	stock := sim.DefaultArch()
	nuca := stock
	nuca.Mem.NUCA = mem.DefaultNUCA()
	key := func(arch sim.Arch, cores int) exp.CellKey {
		return exp.CellKey{Figure: "suite", App: "DegreeCount", Input: "URND", Scale: 8, Seed: 42,
			Scheme: "COBRA", Cores: cores, Arch: exp.ArchFingerprint(arch)}
	}
	served := []struct {
		name  string
		k     exp.CellKey
		nuca  bool
		cores int
	}{
		{"plain, NumCores 0", key(stock, 0), false, 1},
		{"plain, NumCores 1", key(stock.WithCores(1), 1), false, 1},
		{"plain, 4 cores", key(stock.WithCores(4), 4), false, 4},
		{"NUCA, NumCores 0", key(nuca, 0), true, 1},
		{"NUCA, NumCores 1", key(nuca.WithCores(1), 1), true, 1},
		{"NUCA, 4 cores", key(nuca.WithCores(4), 4), true, 4},
	}
	for _, c := range served {
		spec, ok := co.specFor(c.k)
		if !ok {
			t.Errorf("%s: declined, want served", c.name)
			continue
		}
		if spec.NUCA != c.nuca || spec.Cores != c.cores {
			t.Errorf("%s: job NUCA=%v cores=%d, want NUCA=%v cores=%d", c.name, spec.NUCA, spec.Cores, c.nuca, c.cores)
		}
		if len(spec.Schemes) != 1 || spec.Schemes[0] != sim.SchemeIDCOBRA || spec.App != c.k.App || spec.Scale != c.k.Scale {
			t.Errorf("%s: job %+v does not carry the cell", c.name, spec.RunSpec)
		}
	}

	noPrefetch := stock
	noPrefetch.Mem.PrefetchDegree = 0
	variant := key(stock, 1)
	variant.Scheme = "COBRA[evict=8]"
	for name, k := range map[string]exp.CellKey{
		"A1 prefetcher off": key(noPrefetch, 1),
		"variant scheme":    variant,
	} {
		if _, ok := co.specFor(k); ok {
			t.Errorf("%s: served, want declined", name)
		}
	}
}
