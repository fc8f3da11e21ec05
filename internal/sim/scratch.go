package sim

import (
	"sync"

	"cobra/internal/core"
)

// binScratch is the software-PB scratch state of one run: the
// materialized bins plus the C-Buffer fill counters and bin write
// cursors. Runs executed back-to-back on one worker (exp.MapCells
// cells) churn megabytes of these per cell; pooling them keeps the
// tuple capacity warm across cells. Contents are fully re-initialized
// on checkout, so reuse is invisible to the simulation.
type binScratch struct {
	bins   [][]core.Tuple
	fill   []int
	binPos []int
}

var binScratchPool = sync.Pool{New: func() any { return new(binScratch) }}

// getBinScratch checks out a scratch sized for n bins: counters zeroed,
// bins emptied with their capacities (the expensive part) preserved.
func getBinScratch(n int) *binScratch {
	s := binScratchPool.Get().(*binScratch)
	if cap(s.bins) < n {
		s.bins = make([][]core.Tuple, n)
		s.fill = make([]int, n)
		s.binPos = make([]int, n)
	}
	s.bins = s.bins[:n]
	s.fill = s.fill[:n]
	s.binPos = s.binPos[:n]
	for i := range s.bins {
		s.bins[i] = s.bins[i][:0]
		s.fill[i] = 0
		s.binPos[i] = 0
	}
	return s
}

// putBinScratch returns a scratch to the pool. The caller must be done
// with every slice handed out from it.
func putBinScratch(s *binScratch) { binScratchPool.Put(s) }
