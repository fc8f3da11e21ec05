package phi

// Test-only views of PHI's coalescing statistics, residue bins and bin
// range.

// CoalesceRate returns the fraction of updates absorbed on chip.
func (s Stats) CoalesceRate() float64 {
	if s.Updates == 0 {
		return 0
	}
	return float64(s.CoalescedL1+s.CoalescedL2+s.CoalescedLLC) / float64(s.Updates)
}

// LLCShare returns the fraction of coalescing that happened at the LLC
// (the paper reports 97% on average).
func (s Stats) LLCShare() float64 {
	total := s.CoalescedL1 + s.CoalescedL2 + s.CoalescedLLC
	if total == 0 {
		return 0
	}
	return float64(s.CoalescedLLC) / float64(total)
}

// TotalBinnedTuples counts residue tuples in memory bins.
func (m *Model) TotalBinnedTuples() int {
	n := 0
	for _, b := range m.Bins {
		n += len(b)
	}
	return n
}

// BinShift returns the bin range shift.
func (m *Model) BinShift() uint { return m.shift }
