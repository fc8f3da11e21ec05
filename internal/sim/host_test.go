package sim_test

// The host store: every run takes its bins and per-run tables from
// storage its machines keep across runs. COBRA's bins are windows of
// the arena at Init's offsets, and a warm run allocates almost nothing.

import (
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"cobra/internal/phi"
	"cobra/internal/sim"
	"cobra/internal/simtest"
)

// recordingApplier records the machine of every core that applies an
// update, with the smallest key it applied.
type recordingApplier struct {
	sim.Applier
	mu    *sync.Mutex
	first map[*sim.Mach]uint32
}

func (r recordingApplier) Apply(m *sim.Mach, key uint32, val uint64) {
	r.mu.Lock()
	if k, ok := r.first[m]; !ok || key < k {
		r.first[m] = key
	}
	r.mu.Unlock()
	r.Applier.Apply(m, key, val)
}

// gangMachs wraps app so the machines of the next run's cores that
// apply updates are recorded; the returned function lists them in core
// order. COBRA's Accumulate hands core c the c-th range of bins, so
// core order is the order of the smallest key each core applied.
func gangMachs(app *sim.App) func() []*sim.Mach {
	r := recordingApplier{mu: new(sync.Mutex), first: map[*sim.Mach]uint32{}}
	orig := app.NewApplier
	app.NewApplier = func(m *sim.Mach) sim.Applier {
		r.Applier = orig(m)
		return r
	}
	return func() []*sim.Mach {
		var machs []*sim.Mach
		for m := range r.first {
			machs = append(machs, m)
		}
		sort.Slice(machs, func(i, j int) bool { return r.first[machs[i]] < r.first[machs[j]] })
		return machs
	}
}

// chunkBinCounts counts the tuples of core c's chunk (of n) per bin of
// numBins power-of-two key ranges: what Init counts on core c.
func chunkBinCounts(app *sim.App, c, n, numBins int) []int {
	shift := uint(0)
	for (app.NumKeys+(1<<shift)-1)>>shift > numBins {
		shift++
	}
	lo, hi := sim.ShardRange(c, n, app.NumUpdates)
	counts := make([]int, numBins)
	i := 0
	app.ForEach(func(key uint32, _ uint64, _ bool) {
		if i >= lo && i < hi {
			counts[key>>shift]++
		}
		i++
	})
	return counts
}

// TestCOBRABinsCarvedAtInitOffsets: at 1 and 4 cores, every core's
// in-memory bin b ends as a window of that core's arena at Init's
// offset for b, with capacity exactly Init's count — full for COBRA,
// at most full for COBRA-COMM — so no eviction reallocated a bin. The
// runs take machines whose arenas a larger earlier run filled, so stale
// tuples sit past every window they carve.
func TestCOBRABinsCarvedAtInitOffsets(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no GC drains the pool
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // one pool slot for every put and get
	recycled := false
	for _, cores := range []int{1, 4} {
		arch := sim.DefaultArch().WithCores(cores)
		sim.DrainPool()
		big, _ := simtest.CountAppDist(simtest.DistUniform, 1<<16, 120000, 41)
		bigMachs := gangMachs(big)
		if _, err := sim.RunCOBRA(big, sim.CobraOpt{}, arch); err != nil {
			t.Fatal(err)
		}
		for _, opt := range []sim.CobraOpt{{}, {Coalesce: true}} {
			app, counts := simtest.CountAppDist(simtest.DistSkewed, 1<<16, 40000, 42)
			machs := gangMachs(app)
			if _, err := sim.RunCOBRA(app, opt, arch); err != nil {
				t.Fatal(err)
			}
			simtest.CheckCounts(t, "COBRA", *counts, simtest.RefCounts(app))
			ms := machs()
			if len(ms) != cores {
				t.Fatalf("%d cores: recorded %d machines", cores, len(ms))
			}
			for c, m := range ms {
				for _, b := range bigMachs() {
					recycled = recycled || m == b
				}
				bins, arena := m.HostBins()
				want := chunkBinCounts(app, c, cores, len(bins))
				off := 0
				for b, bin := range bins {
					if cap(bin) != want[b] {
						t.Fatalf("%d cores, comm=%v, core %d bin %d: cap %d, Init counted %d", cores, opt.Coalesce, c, b, cap(bin), want[b])
					}
					if !opt.Coalesce && len(bin) != cap(bin) {
						t.Fatalf("%d cores, core %d bin %d: len %d, cap %d", cores, c, b, len(bin), cap(bin))
					}
					if len(bin) > 0 && &bin[0] != &arena[off] {
						t.Fatalf("%d cores, comm=%v, core %d bin %d: not backed by the arena at offset %d", cores, opt.Coalesce, c, b, off)
					}
					off += want[b]
				}
				if off != len(arena) {
					t.Fatalf("%d cores, core %d: bins cover %d tuples of an arena of %d", cores, c, off, len(arena))
				}
			}
		}
	}
	if !recycled && !raceEnabled { // the race detector's sync.Pool may drop them all
		t.Fatal("no run took a machine the larger run used; stale arenas are not exercised")
	}
}

// allocBytes is the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// phiResidueBytes is what the PHI models of a run on cores cores
// allocate for their residue bins, which grow from nil every run: each
// core's chunk fed through a model built beforehand, so only the feed
// is measured.
func phiResidueBytes(t *testing.T, app *sim.App, cores, numBins int) uint64 {
	cfg := phi.DefaultConfig(app.TupleBytes, numBins)
	cfg.Reduce = app.Reduce
	models := make([]*phi.Model, cores)
	for c := range models {
		models[c] = phi.New(new(phi.Store), cfg, uint64(app.NumKeys))
	}
	residue := allocBytes(func() {
		for c, m := range models {
			lo, hi := sim.ShardRange(c, cores, app.NumUpdates)
			i := 0
			app.ForEach(func(key uint32, val uint64, _ bool) {
				if i >= lo && i < hi {
					m.Update(key, val)
				}
				i++
			})
			m.Flush()
		}
	})
	if residue == 0 {
		t.Fatal("the PHI feed allocated nothing; its residue is not measured")
	}
	return residue
}

// TestWarmRunsAllocateLittle pins the host store: a run repeated on the
// machines of an identical run takes its bins and tables from them, so
// it allocates only the applier's functional state (the count array,
// numKeys × 4 B = 64 KiB) plus per-run headers and closures, about
// 2–3 KiB per core, and PHI its residue bins, which it drops after
// Accumulate and the test measures by feeding PHI's functional model.
// On new machines the same runs allocate the arena (numUpdates × 16 B =
// 1 MiB) and, per core, the tables: PHI's three coalescing tables
// (8192, 16384 and 16384 slots of 16 B, 640 KiB), COBRA's bin headers
// (16384 × 24 B = 384 KiB), and one Accumulate prefix per source
// (4097 × 8 B = 32 KiB at PB-SW's and PHI's 4096 bins). The bound
// allows 16 KiB over the count array and the residue, half the
// smallest of those, so none can come back unseen. GC is off, so the
// pool keeps every machine, and one processor runs the test, so every
// machine is put into the pool slot the next run takes from.
func TestWarmRunsAllocateLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops machines at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const keys, updates, phiBins = 1 << 14, 1 << 16, 4096
	const bound = keys*4 + 16<<10
	runs := []schemeRun{
		{"PB-SW", func(app *sim.App, arch sim.Arch) (sim.Metrics, error) { return sim.RunPBSW(app, 4096, arch) }},
		{"COBRA", func(app *sim.App, arch sim.Arch) (sim.Metrics, error) { return sim.RunCOBRA(app, sim.CobraOpt{}, arch) }},
		{"PHI", func(app *sim.App, arch sim.Arch) (sim.Metrics, error) { return sim.RunPHI(app, phiBins, arch) }},
	}
	for _, cores := range []int{1, 4} {
		arch := sim.DefaultArch().WithCores(cores)
		for _, sr := range runs {
			app, _ := simtest.CountAppDist(simtest.DistUniform, keys, updates, 51)
			run := func() {
				if _, err := sr.run(app, arch); err != nil {
					t.Fatal(err)
				}
			}
			run()
			warm := allocBytes(run)
			limit := uint64(bound)
			if sr.name == "PHI" {
				limit += phiResidueBytes(t, app, cores, phiBins)
			}
			t.Logf("%s on %d cores: %d B warm, bound %d B", sr.name, cores, warm, limit)
			if warm > limit {
				t.Errorf("%s on %d cores: a warm run allocates %d B, over the %d B bound", sr.name, cores, warm, limit)
			}
		}
	}
}

// TestPHIKeepsNoResidue: the residue bins a PHI run appends are
// garbage once Accumulate has applied them, so a pooled machine must
// not keep them alive until its next PHI run. After a run whose residue
// holds 16 MiB, the live heap may grow by the applier's count array
// (numKeys × 4 B = 4 MiB) and the pooled machine with its tables, well
// under half the residue.
func TestPHIKeepsNoResidue(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops machines at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const keys, updates, phiBins = 1 << 20, 1 << 20, 4096
	app, _ := simtest.CountAppDist(simtest.DistUniform, keys, updates, 61)
	cfg := phi.DefaultConfig(app.TupleBytes, phiBins)
	cfg.Reduce = app.Reduce
	m := phi.New(new(phi.Store), cfg, keys)
	app.ForEach(func(key uint32, val uint64, _ bool) { m.Update(key, val) })
	m.Flush()
	residue := uint64(0)
	for _, bin := range m.Bins {
		residue += uint64(cap(bin)) * 16
	}
	m = nil

	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	sim.DrainPool()
	before := live()
	if _, err := sim.RunPHI(app, phiBins, sim.DefaultArch()); err != nil {
		t.Fatal(err)
	}
	grown := int64(live()) - int64(before)
	t.Logf("residue %d B, live heap grew %d B", residue, grown)
	if grown > int64(residue/2) {
		t.Errorf("the live heap grew %d B after a PHI run with %d B of residue: the residue outlives the run", grown, residue)
	}
}
