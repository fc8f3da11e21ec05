package stream

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cobra/internal/sim"
)

func testWorkload(kind Kind, dist Dist, windows int) Workload {
	w := Workload{
		Name:          "StreamIngest",
		InputName:     "URND",
		Kind:          kind,
		Dist:          dist,
		NumKeys:       1 << 10,
		Windows:       windows,
		WindowUpdates: 1 << 12,
		Seed:          42,
	}
	if kind == KindDelta {
		w.Name = "StreamDelta"
	}
	if dist == DistSkewed {
		w.InputName = "SKEW"
	}
	return w
}

// TestUpdateDeterminism pins the random-access generator: Update(i) is
// a pure function of (Seed, i), so two workloads with the same seed
// agree element-wise and a different seed diverges.
func TestUpdateDeterminism(t *testing.T) {
	w := testWorkload(KindDelta, DistUniform, 3)
	w2 := w
	diff := 0
	other := w
	other.Seed = 43
	for i := 0; i < w.Total(); i++ {
		k1, v1 := w.Update(i)
		k2, v2 := w2.Update(i)
		if k1 != k2 || v1 != v2 {
			t.Fatalf("Update(%d) not deterministic: (%d,%d) vs (%d,%d)", i, k1, v1, k2, v2)
		}
		if int(k1) >= w.NumKeys {
			t.Fatalf("Update(%d) key %d out of range [0,%d)", i, k1, w.NumKeys)
		}
		if v1 == 0 {
			t.Fatalf("Update(%d) produced zero value", i)
		}
		ko, vo := other.Update(i)
		if ko != k1 || vo != v1 {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed 43 generated the identical stream as seed 42")
	}
}

// TestSkewConcentration sanity-checks DistSkewed: the low quarter of
// the key space must absorb well over half the update mass.
func TestSkewConcentration(t *testing.T) {
	w := testWorkload(KindIngest, DistSkewed, 2)
	low := 0
	for i := 0; i < w.Total(); i++ {
		k, _ := w.Update(i)
		if int(k) < w.NumKeys/4 {
			low++
		}
	}
	if frac := float64(low) / float64(w.Total()); frac < 0.5 {
		t.Fatalf("skewed stream put only %.2f of updates in the low quarter", frac)
	}
}

// TestStreamOfflineConformance is the tentpole contract: a streamed
// run over K windows bitwise-equals the offline oracle applied to the
// concatenated update sequence — for every streamable scheme, at one
// and several cores, for both update kinds.
func TestStreamOfflineConformance(t *testing.T) {
	schemes := []sim.Scheme{sim.SchemeBaseline, sim.SchemePBSW, sim.SchemeCOBRA, sim.SchemeComm, sim.SchemePHI}
	for _, kind := range []Kind{KindIngest, KindDelta} {
		for _, dist := range []Dist{DistUniform, DistSkewed} {
			w := testWorkload(kind, dist, 4)
			for _, scheme := range schemes {
				for _, cores := range []int{1, 3} {
					name := fmt.Sprintf("%s/%s/%s/cores=%d", kind, dist.name(), scheme, cores)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Scheme: scheme, Bins: 64, Arch: sim.DefaultArch().WithCores(cores)}
						got, err := Run(w, cfg)
						if err != nil {
							t.Fatalf("Run: %v", err)
						}
						want, err := RunOffline(w, cfg)
						if err != nil {
							t.Fatalf("RunOffline: %v", err)
						}
						assertSameFinal(t, got.Final, want.Final)
						if len(got.PerWindow) != w.Windows {
							t.Fatalf("got %d window metrics, want %d", len(got.PerWindow), w.Windows)
						}
						// Metrics are NOT additive across batchings (coalescing
						// is more effective over the offline concatenation), so
						// only sanity-check the per-window metrics here; byte
						// identity of the functional state is the contract.
						for i, m := range got.PerWindow {
							if m.Cycles <= 0 {
								t.Fatalf("window %d reported no cycles", i)
							}
							if wantCores := cores; m.Cores != wantCores {
								t.Fatalf("window %d ran on %d cores, want %d", i, m.Cores, wantCores)
							}
						}
					})
				}
			}
		}
	}
}

func (d Dist) name() string {
	if d == DistSkewed {
		return "skew"
	}
	return "urnd"
}

// TestStreamRunDeterminism pins byte-identity of the metrics
// themselves: two streamed runs of the same spec agree window for
// window.
func TestStreamRunDeterminism(t *testing.T) {
	w := testWorkload(KindIngest, DistUniform, 3)
	cfg := Config{Scheme: sim.SchemeCOBRA, Arch: sim.DefaultArch()}
	a, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerWindow {
		if a.PerWindow[i] != b.PerWindow[i] {
			t.Fatalf("window %d metrics differ between identical runs", i)
		}
	}
	if a.Merged != b.Merged {
		t.Fatal("merged metrics differ between identical runs")
	}
}

// TestWindowMetricsIndependence pins the checkpoint-replay premise: a
// window's metrics depend only on the window's updates, never on the
// functional state accumulated by earlier windows. Window 2 simulated
// mid-stream must equal window 2 simulated against fresh state.
func TestWindowMetricsIndependence(t *testing.T) {
	w := testWorkload(KindDelta, DistSkewed, 3)
	cfg := Config{Scheme: sim.SchemePBSW, Bins: 64, Arch: sim.DefaultArch()}
	full, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(w.NumKeys) // fresh: windows 0 and 1 never applied
	id, bins, err := cfg.resolve(w.NumKeys)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(w.WindowApp(2, st), id, bins, cfg.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if m != full.PerWindow[2] {
		t.Fatal("window 2 metrics depend on prior functional state")
	}
}

// TestStreamResume kills a streamed run mid-stream and resumes it
// against the recorded windows: the resumed run must replay the
// completed prefix functionally and still bitwise-match the offline
// oracle at one and several cores.
func TestStreamResume(t *testing.T) {
	for _, cores := range []int{1, 3} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			w := testWorkload(KindIngest, DistUniform, 5)
			journal := map[int]sim.Metrics{}
			ctx, cancel := context.WithCancel(context.Background())
			cfg := Config{
				Scheme: sim.SchemeCOBRA,
				Arch:   sim.DefaultArch().WithCores(cores),
				Ctx:    ctx,
				Store: func(i int, run func() (sim.Metrics, error)) (sim.Metrics, bool, error) {
					m, err := run()
					if err != nil {
						return m, false, err
					}
					journal[i] = m
					if i == 2 {
						cancel() // kill after the third window commits
					}
					return m, false, nil
				},
			}
			if _, err := Run(w, cfg); err == nil {
				t.Fatal("interrupted run returned no error")
			} else if !isInterrupted(err) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			if len(journal) != 3 {
				t.Fatalf("journal holds %d windows, want 3", len(journal))
			}

			resumed := Config{
				Scheme: cfg.Scheme,
				Arch:   cfg.Arch,
				Store: func(i int, run func() (sim.Metrics, error)) (sim.Metrics, bool, error) {
					if m, ok := journal[i]; ok {
						return m, true, nil
					}
					m, err := run()
					if err == nil {
						journal[i] = m
					}
					return m, false, err
				},
			}
			got, err := Run(w, resumed)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got.Replayed != 3 {
				t.Fatalf("resumed run replayed %d windows, want 3", got.Replayed)
			}
			want, err := RunOffline(w, Config{Scheme: cfg.Scheme, Arch: cfg.Arch})
			if err != nil {
				t.Fatal(err)
			}
			assertSameFinal(t, got.Final, want.Final)
			// Replayed metrics must be the recorded originals.
			fresh, err := Run(w, Config{Scheme: cfg.Scheme, Arch: cfg.Arch})
			if err != nil {
				t.Fatal(err)
			}
			for i := range fresh.PerWindow {
				if got.PerWindow[i] != fresh.PerWindow[i] {
					t.Fatalf("window %d: resumed metrics differ from a fresh run", i)
				}
			}
		})
	}
}

func isInterrupted(err error) bool {
	for e := err; e != nil; {
		if e == ErrInterrupted {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// TestRecordFailure pins that a Store failing to record a window
// aborts the run — a window must never advance past an unrecorded
// checkpoint — and that the store's error stays inspectable.
func TestRecordFailure(t *testing.T) {
	w := testWorkload(KindIngest, DistUniform, 3)
	boom := fmt.Errorf("disk full")
	cfg := Config{
		Scheme: sim.SchemeBaseline,
		Arch:   sim.DefaultArch(),
		Store: func(i int, run func() (sim.Metrics, error)) (sim.Metrics, bool, error) {
			m, err := run()
			if err == nil && i == 1 {
				return sim.Metrics{}, false, boom
			}
			return m, false, err
		},
	}
	if _, err := Run(w, cfg); !errors.Is(err, boom) {
		t.Fatalf("run after a failed checkpoint record: err = %v, want %v", err, boom)
	}
}

// TestNotStreamable pins the engine's PB-SW-IDEAL rejection (which
// schemes are streamable is pinned by sim's scheme-table test).
func TestNotStreamable(t *testing.T) {
	w := testWorkload(KindIngest, DistUniform, 2)
	for _, run := range []func(Workload, Config) (*Result, error){Run, RunOffline} {
		if _, err := run(w, Config{Scheme: sim.SchemePBIdeal, Arch: sim.DefaultArch()}); err == nil {
			t.Fatal("PB-SW-IDEAL streamed without error")
		}
	}
}

// TestStaticAppIsolation pins the registry-facing App() view: every
// NewApplier call gets fresh functional state, so one App can run
// through several schemes without cross-contamination.
func TestStaticAppIsolation(t *testing.T) {
	w := testWorkload(KindIngest, DistUniform, 2)
	app := w.App()
	m1, err := sim.RunBaseline(app, sim.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sim.RunBaseline(app, sim.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("static App not reusable: back-to-back runs differ")
	}
}

func assertSameFinal(t *testing.T, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("final state length %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("final state diverges at key %d: %d != %d", i, got[i], want[i])
		}
	}
}
