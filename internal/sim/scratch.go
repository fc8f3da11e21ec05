package sim

import "cobra/internal/core"

// binScratch is one machine's host bin arena: the in-memory bins of the
// stream chunk its core bins (PB-SW and COBRA), one tuple array with
// bin after bin at Init's offsets, plus PB-SW's C-Buffer fill counters
// and bin write cursors. It lives on the Mach, so runs executed
// back-to-back on one worker (exp.MapCells cells, streamed windows)
// reuse its capacity instead of allocating megabytes per run. It is
// storage, not state: checkout zeroes the counters and offsets, every
// bin is carved at zero length or written in full before it is read,
// so stale tuples of an earlier run are never read.
type binScratch struct {
	tuples []core.Tuple   // the chunk's tuples, grouped by bin
	off    []int          // bin b is tuples[off[b]:off[b+1]] once off holds prefix sums
	bins   [][]core.Tuple // bin b's slice of tuples, carved after Binning
	fill   []int
	binPos []int
}

// checkout readies the arena for numBins bins over a chunk of n
// tuples: counters and offsets zeroed, the tuple array's capacity (the
// expensive part) preserved. Init counts bin b's tuples into off[b+1].
func (s *binScratch) checkout(numBins, n int) *binScratch {
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

// prefixSums turns Init's per-bin counts in off[1:] into offsets.
func (s *binScratch) prefixSums() {
	for b := 1; b < len(s.off); b++ {
		s.off[b] += s.off[b-1]
	}
}

// carve points every bin at a zero-length window of exactly its
// counted capacity in the tuple array (§V-E: BinBasePtr + BinOffset)
// and returns the bins, so appending bin b's tuples never reallocates
// and never reaches a neighbouring bin.
func (s *binScratch) carve() [][]core.Tuple {
	for b := range s.bins {
		s.bins[b] = s.tuples[s.off[b]:s.off[b]:s.off[b+1]]
	}
	return s.bins
}

// lenPrefix overwrites off with the prefix sums of bins' lengths, for
// bins laid out after Binning (COBRA's, which coalescing and the
// C-Buffer regroup may leave off Init's offsets, and PHI's residue),
// and returns it.
func (s *binScratch) lenPrefix(bins [][]core.Tuple) []int {
	if cap(s.off) < len(bins)+1 {
		s.off = make([]int, len(bins)+1)
	}
	s.off = s.off[:len(bins)+1]
	s.off[0] = 0
	for b, seg := range bins {
		s.off[b+1] = s.off[b] + len(seg)
	}
	return s.off
}
