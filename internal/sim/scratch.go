package sim

import (
	"sync"

	"cobra/internal/core"
)

// binScratch is the software-PB scratch state of one source core's
// run: its chunk's materialized tuples, bin after bin, with each bin's
// offset, plus the C-Buffer fill counters and bin write cursors. Runs
// executed back-to-back on one worker (exp.MapCells cells) churn
// megabytes of these per cell; pooling them keeps the tuple capacity
// warm across cells. Contents are fully re-initialized on checkout, so
// reuse is invisible to the simulation.
type binScratch struct {
	tuples []core.Tuple   // the chunk's tuples, grouped by bin
	off    []int          // bin b is tuples[off[b]:off[b+1]] once off holds prefix sums
	bins   [][]core.Tuple // bin b's slice of tuples, carved after Binning
	fill   []int
	binPos []int
}

var binScratchPool = sync.Pool{New: func() any { return new(binScratch) }}

// getBinScratch checks out a scratch for numBins bins over a chunk of
// n tuples: counters and offsets zeroed, the tuple array's capacity
// (the expensive part) preserved.
func getBinScratch(numBins, n int) *binScratch {
	s := binScratchPool.Get().(*binScratch)
	if cap(s.bins) < numBins {
		s.bins = make([][]core.Tuple, numBins)
		s.fill = make([]int, numBins)
		s.binPos = make([]int, numBins)
		s.off = make([]int, numBins+1)
	}
	if cap(s.tuples) < n {
		s.tuples = make([]core.Tuple, n)
	}
	s.tuples = s.tuples[:n]
	s.bins = s.bins[:numBins]
	s.fill = s.fill[:numBins]
	s.binPos = s.binPos[:numBins]
	s.off = s.off[:numBins+1]
	clear(s.fill)
	clear(s.binPos)
	clear(s.off)
	return s
}

// putBinScratch returns a scratch to the pool. The caller must be done
// with every slice handed out from it.
func putBinScratch(s *binScratch) { binScratchPool.Put(s) }
