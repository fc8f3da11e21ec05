// Package exp defines the experiment registry and the per-figure
// drivers that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index).
package exp

import (
	"fmt"
	"sort"

	"cobra/internal/graph"
	"cobra/internal/kernels"
	"cobra/internal/pb"
	"cobra/internal/sim"
	"cobra/internal/sparse"
	"cobra/internal/stats"
)

// appBuilder constructs a workload at the given scale.
type appBuilder func(input string, scale int, seed uint64) (*sim.App, error)

// buildGraphInput returns the named graph input, memoized per
// (input, scale, seed) — see inputcache.go.
func buildGraphInput(input string, scale int, seed uint64) (*graph.EdgeList, error) {
	return CachedGraphInput(input, scale, seed)
}

// buildMatrixInput returns the named sparse-matrix input, memoized per
// (input, scale, seed).
func buildMatrixInput(input string, scale int, seed uint64) (*sparse.Matrix, error) {
	return CachedMatrixInput(input, scale, seed)
}

// genGraphInput generates the named graph input (stand-ins for the
// paper's Table III inputs; see internal/graph). Callers want the
// memoized buildGraphInput instead.
func genGraphInput(input string, scale int, seed uint64) (*graph.EdgeList, error) {
	switch input {
	case "KRON":
		return graph.RMAT(scale, 16, seed), nil
	case "TWIT":
		return graph.RMATParams(scale, 12, 0.65, 0.15, 0.15, seed+2), nil
	case "URND":
		n := 1 << scale
		return graph.Uniform(n, 16*n, seed+1), nil
	case "ROAD":
		side := 1 << ((scale + 1) / 2)
		return graph.Grid(side, 1<<(scale/2), 0.05, seed+3), nil
	default:
		return nil, fmt.Errorf("exp: unknown graph input %q (want KRON, TWIT, URND, ROAD)", input)
	}
}

// genMatrixInput generates the named sparse-matrix input.
func genMatrixInput(input string, scale int, seed uint64) (*sparse.Matrix, error) {
	n := 1 << scale
	switch input {
	case "STEN": // HPCG-style stencil (simulation problems)
		side := 1 << (scale / 2)
		return sparse.Stencil5(side), nil
	case "RAND": // optimization problems
		return sparse.RandomSparse(n, n, 8, seed+4), nil
	case "SKEW": // power-law columns
		return sparse.SkewedSparse(n, n, 8, seed+5), nil
	case "BAND":
		return sparse.Banded(n, 8, 1<<(scale/2), seed+6), nil
	default:
		return nil, fmt.Errorf("exp: unknown matrix input %q (want STEN, RAND, SKEW, BAND)", input)
	}
}

var appBuilders = map[string]appBuilder{
	"DegreeCount": func(input string, scale int, seed uint64) (*sim.App, error) {
		el, err := buildGraphInput(input, scale, seed)
		if err != nil {
			return nil, err
		}
		return kernels.DegreeCount(el, input), nil
	},
	"NeighborPopulate": func(input string, scale int, seed uint64) (*sim.App, error) {
		el, err := buildGraphInput(input, scale, seed)
		if err != nil {
			return nil, err
		}
		return kernels.NeighborPopulate(el, input), nil
	},
	"PageRank": func(input string, scale int, seed uint64) (*sim.App, error) {
		el, err := buildGraphInput(input, scale, seed)
		if err != nil {
			return nil, err
		}
		return kernels.PageRank(graph.BuildCSR(el, false, pb.Options{}), input), nil
	},
	"Radii": func(input string, scale int, seed uint64) (*sim.App, error) {
		el, err := buildGraphInput(input, scale, seed)
		if err != nil {
			return nil, err
		}
		return kernels.Radii(graph.BuildCSR(el, false, pb.Options{}), input), nil
	},
	"IntSort": func(input string, scale int, seed uint64) (*sim.App, error) {
		// Input selects the max key value relative to key count (the
		// paper varies maximum key values): SMALLKEY = 2^(scale-2),
		// BIGKEY = 2^scale.
		n := 4 << scale
		switch input {
		case "SMALLKEY":
			return kernels.IntSort(n, 1<<(scale-2), seed+7, input), nil
		case "BIGKEY", "URND", "KRON", "TWIT", "ROAD":
			return kernels.IntSort(n, 1<<scale, seed+7, "BIGKEY"), nil
		default:
			return nil, fmt.Errorf("exp: unknown IntSort input %q (want SMALLKEY, BIGKEY)", input)
		}
	},
	"SpMV": func(input string, scale int, seed uint64) (*sim.App, error) {
		m, err := buildMatrixInput(input, scale, seed)
		if err != nil {
			return nil, err
		}
		return kernels.SpMV(m, input), nil
	},
	"Transpose": func(input string, scale int, seed uint64) (*sim.App, error) {
		m, err := buildMatrixInput(input, scale, seed)
		if err != nil {
			return nil, err
		}
		return kernels.Transpose(m, input), nil
	},
	"PINV": func(input string, scale int, seed uint64) (*sim.App, error) {
		perm := stats.NewRand(seed + 8).Perm(1 << scale)
		return kernels.PINV(perm, "PERM"), nil
	},
	"SymPerm": func(input string, scale int, seed uint64) (*sim.App, error) {
		m, err := buildMatrixInput(input, scale, seed)
		if err != nil {
			return nil, err
		}
		perm := stats.NewRand(seed + 9).Perm(m.Rows)
		return kernels.SymPerm(m, perm, input), nil
	},
}

// AppNames returns the registered workload names, sorted.
func AppNames() []string {
	names := make([]string, 0, len(appBuilders))
	for n := range appBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InputNames returns the canonical input names.
func InputNames() []string {
	return []string{"KRON", "TWIT", "URND", "ROAD", "STEN", "RAND", "SKEW", "BAND", "SMALLKEY", "BIGKEY", "PERM"}
}

// ValidApp reports whether name is a registered workload, with an
// error naming the valid set — the shared validation for CLI flags
// and service job specs.
func ValidApp(name string) error {
	if _, ok := appBuilders[name]; !ok {
		return fmt.Errorf("exp: unknown workload %q (want one of %v)", name, AppNames())
	}
	return nil
}

// ValidInput reports whether name is a canonical input name, with an
// error naming the valid set.
func ValidInput(name string) error {
	for _, n := range InputNames() {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("exp: unknown input %q (want one of %v)", name, InputNames())
}

// GraphApps lists workloads that take graph inputs.
func GraphApps() []string {
	return []string{"DegreeCount", "NeighborPopulate", "PageRank", "Radii"}
}

// MatrixApps lists workloads that take matrix inputs.
func MatrixApps() []string { return []string{"SpMV", "Transpose", "SymPerm"} }

// Scale bounds accepted by BuildApp. Below MinScale the generators'
// shift arithmetic degenerates (IntSort's SMALLKEY range needs
// scale-2 bits); above MaxScale a single input is tens of GiB of
// update stream — far past anything the simulated 1/16th-machine
// models, and an easy way for a service caller to OOM the process.
const (
	MinScale = 4
	MaxScale = 30
)

// BuildApp constructs a workload by name at the given scale. The
// scale must lie in [MinScale, MaxScale]; out-of-range values are a
// validation error, never a shift panic or an OOM.
func BuildApp(name, input string, scale int, seed uint64) (*sim.App, error) {
	b, ok := appBuilders[name]
	if !ok {
		return nil, fmt.Errorf("exp: unknown workload %q (want one of %v)", name, AppNames())
	}
	if scale < MinScale || scale > MaxScale {
		return nil, fmt.Errorf("exp: scale %d out of range [%d, %d]", scale, MinScale, MaxScale)
	}
	return b(input, scale, seed)
}

// BinSweep is the bin-count sweep used to pick PB-SW's best bin count,
// exactly as the paper does ("we simulated multiple bin ranges for PB,
// selecting the best bin range for each workload and input pair").
var BinSweep = []int{16, 256, 4096, 16384, 65536}

// validBins enumerates the sweep's bin counts applicable to app (the
// independent cells of a sweep). A key range smaller than every sweep
// point degenerates to a single 1-bin run, as before.
func validBins(app *sim.App) []int {
	var out []int
	for _, bins := range BinSweep {
		if bins > app.NumKeys {
			break
		}
		out = append(out, bins)
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// BestPBSW sweeps bin counts and returns the fastest PB-SW run plus the
// whole sweep (Figure 4's raw data). The sweep cells run on the default
// worker pool (one worker per CPU); use BestPBSWN to bound it.
func BestPBSW(app *sim.App, arch sim.Arch) (best sim.Metrics, sweep []sim.Metrics, err error) {
	return BestPBSWN(app, arch, 0)
}

// BestPBSWN is BestPBSW on a bounded pool: the sweep's independent
// (bin-count) cells run on at most `workers` goroutines (0 =
// GOMAXPROCS, 1 = serial). The sweep slice is ordered by bin count and
// `best` is the first strict minimum, regardless of schedule.
func BestPBSWN(app *sim.App, arch sim.Arch, workers int) (best sim.Metrics, sweep []sim.Metrics, err error) {
	bins := validBins(app)
	sweep, err = MapCells(workers, len(bins), func(i int) (sim.Metrics, error) {
		return sim.Run(app, sim.SchemeIDPBSW, bins[i], arch)
	})
	if err != nil {
		return sim.Metrics{}, nil, err
	}
	return fastest(sweep), sweep, nil
}

// fastest returns the first strict minimum of Cycles in a sweep (the
// zero Metrics for an empty sweep): the paper's best-bin-count pick.
func fastest(sweep []sim.Metrics) sim.Metrics {
	var best sim.Metrics
	for _, m := range sweep {
		if best.Cycles == 0 || m.Cycles < best.Cycles {
			best = m
		}
	}
	return best
}

// BestIdealPB composes PB-SW-IDEAL from a sweep: the fastest Binning
// phase paired with the fastest Accumulate phase (Figure 5).
func BestIdealPB(sweep []sim.Metrics) sim.Metrics {
	if len(sweep) == 0 {
		return sim.Metrics{}
	}
	bestBin, bestAcc := sweep[0], sweep[0]
	for _, m := range sweep[1:] {
		if m.BinCycles < bestBin.BinCycles {
			bestBin = m
		}
		if m.AccumCycles < bestAcc.AccumCycles {
			bestAcc = m
		}
	}
	return sim.IdealPB(bestBin, bestAcc)
}

// RunScheme executes one scheme by name. It adds the sweeps sim.Run
// cannot do to sim.Run's dispatch: PB-SW with bins <= 0 runs the bin
// sweep and returns its fastest run, PHI with bins <= 0 reuses that
// run's bin count, and PB-SW-IDEAL is composed from the sweep.
func RunScheme(app *sim.App, scheme sim.Scheme, bins int, arch sim.Arch) (sim.Metrics, error) {
	id, err := sim.ParseSchemeID(string(scheme))
	if err != nil {
		return sim.Metrics{}, err
	}
	switch {
	case id == sim.SchemeIDPBIdeal:
		_, sweep, err := BestPBSW(app, arch)
		if err != nil {
			return sim.Metrics{}, err
		}
		return BestIdealPB(sweep), nil
	case bins <= 0 && (id == sim.SchemeIDPBSW || id == sim.SchemeIDPHI):
		best, _, err := BestPBSW(app, arch)
		if err != nil || id == sim.SchemeIDPBSW {
			return best, err
		}
		bins = best.NumBins
	}
	return sim.Run(app, id, bins, arch)
}
