package dist

// Cell -> job translation and servability. A cell is expressible as a
// cobrad job only when every field of its identity survives the wire
// round-trip exactly: the scheme must be a registry name (variant
// schemes like "COBRA[evict=8]" have no JobSpec spelling), the scale
// must be inside the registry bounds, and the architecture fingerprint
// must be one a worker would itself compute from the job — workers run
// the stock sim.DefaultArch with the job's NUCA and core knobs, applied
// by exp.RunSpec.Arch. Anything else (ablation cells with
// hand-modified caches) is declined and simulated locally, which
// preserves byte-identity by construction.

import (
	"cobra/internal/exp"
	"cobra/internal/sim"
	"cobra/internal/srv"
)

// specFor translates a cell into the job a worker would run, or
// reports it unservable. The candidate spec is validated through the
// one shared path (exp.RunSpec.Validate) — no per-binary copy of the
// scheme/scale/cores checks.
func (co *Coordinator) specFor(k exp.CellKey) (srv.JobSpec, bool) {
	if k.Window != 0 {
		// Stream windows are not independently dispatchable: a window's
		// metrics are, but the functional state is sequential. Streamed
		// runs go to workers as whole stream jobs, never as cells.
		return srv.JobSpec{}, false
	}
	id, err := sim.ParseSchemeID(k.Scheme)
	if err != nil {
		// Variant schemes ("COBRA[evict=8]") have no JobSpec spelling.
		return srv.JobSpec{}, false
	}
	// The candidate jobs a stock worker could run for the cell, NUCA
	// off and then on; the first whose fingerprint is the cell's is the
	// job. RunSpec.Arch applies the knobs in the worker's own order. The
	// simulator treats NumCores 0 and 1 alike, but their fingerprints
	// differ, so a one-core cell may carry either spelling.
	cores := max(k.Cores, 1)
	bases := []sim.Arch{sim.DefaultArch()}
	if cores == 1 {
		bases = append(bases, sim.DefaultArch().WithCores(1))
	}
	for _, nuca := range []bool{false, true} {
		spec := exp.RunSpec{
			App:     k.App,
			Input:   k.Input,
			Scale:   k.Scale,
			Seed:    k.Seed,
			Schemes: []sim.SchemeID{id},
			Bins:    k.Bins,
			NUCA:    nuca,
			Cores:   cores,
		}
		for _, base := range bases {
			if spec.CellKey(k.Figure, id, base).Arch != k.Arch {
				continue
			}
			if spec.Validate() != nil {
				return srv.JobSpec{}, false
			}
			return srv.JobSpec{RunSpec: spec}, true
		}
	}
	return srv.JobSpec{}, false
}

// FleetCellKey builds the canonical identity of an ad-hoc fleet cell
// (cobractl fleet run) from the one RunSpec: the stock architecture
// with the spec's NUCA and core knobs applied in the worker's own
// order, fingerprinted the same way the campaign code does.
func FleetCellKey(spec exp.RunSpec, scheme sim.SchemeID) exp.CellKey {
	return spec.CellKey("fleet", scheme, sim.DefaultArch())
}
