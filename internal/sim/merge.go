package sim

// Metrics merge: the explicit reduction from per-core shard metrics to
// one machine-level Metrics (DESIGN §9).
//
// Cycle fields merge by MAX: per-core clocks run concurrently, so the
// machine's wall time is the slowest core — and per-phase cycles are
// per-phase maxima (phases are barrier-separated in the sharded
// runners). Note that merged Cycles is the max of core *totals*, which
// can be less than the sum of the merged phase maxima when different
// cores are slowest in different phases.
//
// Event counters, per-phase memory activity, and DRAM traffic SUM:
// they count machine-wide work. Rates are re-derived from the summed
// raw counts (never averaged): LLCMissRate from summed misses over
// summed accesses, EvictStallFrac from summed stall cycles over summed
// per-core Binning cycles, CBufMissRate weighted by each core's
// binupdate count.

// MergeMetrics folds per-core metrics (core-index order) into one
// machine-level Metrics. A single part is returned unchanged (with
// Cores defaulted to 1), so merging is the identity on single-core
// runs.
func MergeMetrics(parts []Metrics) Metrics {
	if len(parts) == 0 {
		return Metrics{}
	}
	out := parts[0]
	if out.Cores == 0 {
		out.Cores = 1
	}
	if len(parts) == 1 {
		return out
	}
	// Weighted-rate denominators need every part's raw weight; they are
	// not recoverable from a pairwise (rate, rate) fold.
	binCycleSum := out.BinCycles
	cbufWeighted := out.CBufMissRate * float64(out.Ctr.BinUpdates)
	binUpdates := out.Ctr.BinUpdates
	for _, p := range parts[1:] {
		cores := p.Cores
		if cores == 0 {
			cores = 1
		}
		binCycleSum += p.BinCycles
		cbufWeighted += p.CBufMissRate * float64(p.Ctr.BinUpdates)
		binUpdates += p.Ctr.BinUpdates

		out.Cycles = maxf(out.Cycles, p.Cycles)
		out.InitCycles = maxf(out.InitCycles, p.InitCycles)
		out.BinCycles = maxf(out.BinCycles, p.BinCycles)
		out.AccumCycles = maxf(out.AccumCycles, p.AccumCycles)

		out.Ctr = out.Ctr.Add(p.Ctr)
		out.BinCtr = out.BinCtr.Add(p.BinCtr)
		out.AccumCtr = out.AccumCtr.Add(p.AccumCtr)

		out.L1Misses += p.L1Misses
		out.L2Misses += p.L2Misses
		out.LLCMisses += p.LLCMisses
		out.LLCAccesses += p.LLCAccesses
		out.DRAM.ReadLines += p.DRAM.ReadLines
		out.DRAM.WriteLines += p.DRAM.WriteLines
		out.DRAM.PrefetchLines += p.DRAM.PrefetchLines
		out.BinMem = out.BinMem.Sum(p.BinMem)
		out.AccumMem = out.AccumMem.Sum(p.AccumMem)

		if p.NumBins > out.NumBins {
			out.NumBins = p.NumBins
		}
		out.EvictStalls += p.EvictStalls
		out.CtxWasteBytes += p.CtxWasteBytes
		out.CtxSwitches += p.CtxSwitches
		out.Cores += cores
	}
	out.LLCMissRate = 0
	if out.LLCAccesses > 0 {
		out.LLCMissRate = float64(out.LLCMisses) / float64(out.LLCAccesses)
	}
	out.EvictStallFrac = 0
	if binCycleSum > 0 {
		out.EvictStallFrac = out.EvictStalls / binCycleSum
	}
	out.CBufMissRate = 0
	if binUpdates > 0 {
		out.CBufMissRate = cbufWeighted / float64(binUpdates)
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
