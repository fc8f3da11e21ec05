// Package stream is the windowed irregular-update engine: it consumes
// an unbounded sequence of update batches — edge insertions or weight
// deltas, deterministically generated from a seeded workload spec —
// and drives them through the existing scheme runners (Baseline,
// PB-SW, COBRA, COBRA-COMM, PHI) using epoch-based binning. Each
// window is binned, flushed, and applied as one simulation cell with
// the same byte-identity and multi-core sharding contracts as offline
// cells.
//
// Determinism contract (the basis for window-granularity checkpoints):
//
//   - Update(i) is a pure function of (Seed, i): any window is
//     addressable without generating its prefix, so a resumed run can
//     functionally replay completed windows and a remote worker could
//     regenerate any window from the spec alone.
//   - The functional state after window w equals the offline oracle
//     applied to updates [0, (w+1)*WindowUpdates): updates are
//     commutative integer adds, and every scheme runner is a
//     functional no-op, so a streamed run over K windows bitwise-
//     equals the offline run over the concatenated stream — at one
//     core and under the sharded multi-core model alike.
//   - A window's METRICS depend only on the window's updates and the
//     architecture, never on the functional state accumulated by
//     earlier windows (appliers touch addresses derived from keys, not
//     values). That independence is what makes per-window journal
//     entries replayable in isolation.
package stream

import (
	"fmt"

	"cobra/internal/sim"
)

// Kind selects the update family.
type Kind int

const (
	// KindIngest streams edge insertions: each update increments the
	// destination key's degree by one (4 B tuple — the key alone).
	KindIngest Kind = iota
	// KindDelta streams weight deltas: each update adds a hash-derived
	// delta in [1, 256] to the key's weight (8 B tuple: key + delta).
	KindDelta
)

func (k Kind) String() string {
	switch k {
	case KindIngest:
		return "ingest"
	case KindDelta:
		return "delta"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Dist selects the key distribution of the update stream.
type Dist int

const (
	// DistUniform draws keys uniformly from [0, NumKeys).
	DistUniform Dist = iota
	// DistSkewed cubes a uniform fraction, concentrating update mass on
	// low keys — the power-law hot-set every binning scheme exploits.
	DistSkewed
)

// Workload is one seeded streaming workload: Windows windows of
// WindowUpdates updates each over a NumKeys key space.
type Workload struct {
	Name      string // registry app name ("StreamIngest", "StreamDelta")
	InputName string // registry input name selecting Dist
	Kind      Kind
	Dist      Dist
	NumKeys   int
	Windows   int
	// WindowUpdates is the epoch size: updates binned, flushed, and
	// applied per window.
	WindowUpdates int
	Seed          uint64
}

// Total is the length of the concatenated update sequence.
func (w Workload) Total() int { return w.Windows * w.WindowUpdates }

// Validate sanity-checks the workload shape.
func (w Workload) Validate() error {
	if w.NumKeys <= 0 {
		return fmt.Errorf("stream: workload %s has no keys", w.Name)
	}
	if w.Windows <= 0 {
		return fmt.Errorf("stream: workload %s has no windows", w.Name)
	}
	if w.WindowUpdates <= 0 {
		return fmt.Errorf("stream: workload %s has empty windows", w.Name)
	}
	if w.Kind != KindIngest && w.Kind != KindDelta {
		return fmt.Errorf("stream: workload %s has unknown kind %d", w.Name, int(w.Kind))
	}
	if w.Dist != DistUniform && w.Dist != DistSkewed {
		return fmt.Errorf("stream: workload %s has unknown distribution %d", w.Name, int(w.Dist))
	}
	return nil
}

// mix is splitmix64's finalizer: the per-index hash behind the
// random-access generator.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Update returns the i'th update of the stream — a pure function of
// (Seed, i), never of preceding updates.
func (w Workload) Update(i int) (key uint32, val uint64) {
	h := mix(w.Seed ^ mix(uint64(i)))
	k := h % uint64(w.NumKeys)
	if w.Dist == DistSkewed {
		u := float64(h>>11) / (1 << 53)
		u = u * u * u
		k = uint64(u * float64(w.NumKeys))
		if k >= uint64(w.NumKeys) {
			k = uint64(w.NumKeys) - 1
		}
	}
	val = 1
	if w.Kind == KindDelta {
		val = 1 + (mix(h) & 0xFF)
	}
	return uint32(k), val
}

// State is the persistent functional state of a streamed run: the
// weight (or degree) accumulated per key. It survives across windows
// and is shared by per-core shard views within a window, so the final
// slice is directly byte-comparable against the offline oracle's.
type State struct {
	Vals []uint64
}

// NewState allocates the zeroed initial state.
func NewState(numKeys int) *State { return &State{Vals: make([]uint64, numKeys)} }

// ApplyWindow replays window idx functionally — no simulation, no
// machine — mutating st exactly as a simulated run of the window
// would. This is the resume path for windows already recorded in a
// checkpoint journal.
func (w Workload) ApplyWindow(idx int, st *State) {
	lo, hi := idx*w.WindowUpdates, (idx+1)*w.WindowUpdates
	for i := lo; i < hi; i++ {
		k, v := w.Update(i)
		st.Vals[k] += v
	}
}

// applier performs stream updates against the persistent state while
// issuing each update's read-modify-write on the simulated machine.
type applier struct {
	reg  sim.Region
	vals []uint64
}

func (a *applier) Apply(m *sim.Mach, key uint32, val uint64) {
	addr := a.reg.Addr(uint64(key) * 8)
	m.CPU.Load(addr)
	m.CPU.Store(addr)
	a.vals[key] += val
}

func addU64(a, b uint64) uint64 { return a + b }

// tupleBytes is the binned tuple size per kind (ingest bins the key
// alone; delta bins key + 4 B delta).
func (w Workload) tupleBytes() int {
	if w.Kind == KindDelta {
		return 8
	}
	return 4
}

// streamBytes is input bytes consumed per update (ingest reads an
// 8 B edge; delta reads a 16 B keyed-delta record).
func (w Workload) streamBytes() int {
	if w.Kind == KindDelta {
		return 16
	}
	return 8
}

// appRange builds the sim.App view over updates [lo, hi). With st set,
// the applier binds to that shared persistent state (windowed epochs,
// conformance oracles); with st nil every NewApplier call allocates a
// fresh zeroed state — the static-app semantics the exp registry
// expects, where one App may run through several schemes.
func (w Workload) appRange(lo, hi int, st *State) *sim.App {
	return &sim.App{
		Name:        w.Name,
		InputName:   w.InputName,
		Commutative: true,
		TupleBytes:  w.tupleBytes(),
		NumKeys:     w.NumKeys,
		NumUpdates:  hi - lo,
		StreamBytes: w.streamBytes(),
		ApplyALU:    1,
		Reduce:      addU64,
		ForEach: func(emit func(uint32, uint64, bool)) {
			for i := lo; i < hi; i++ {
				k, v := w.Update(i)
				emit(k, v, false)
			}
		},
		NewApplier: func(m *sim.Mach) sim.Applier {
			var vals []uint64
			if st != nil {
				vals = st.Vals
			} else {
				vals = make([]uint64, w.NumKeys)
			}
			return &applier{reg: m.Alloc(uint64(w.NumKeys) * 8), vals: vals}
		},
	}
}

// WindowApp returns the epoch view of window idx, applying into the
// shared persistent state st.
func (w Workload) WindowApp(idx int, st *State) *sim.App {
	return w.appRange(idx*w.WindowUpdates, (idx+1)*w.WindowUpdates, st)
}

// App returns the offline concatenated workload — the whole update
// sequence as one static app with self-contained functional state.
// This is what the exp registry serves for BuildApp("StreamIngest",
// ...): the same updates the windowed engine streams, applied in one
// offline campaign cell.
func (w Workload) App() *sim.App {
	return w.appRange(0, w.Total(), nil)
}
