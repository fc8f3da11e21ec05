package exp

// Test-only registry views.

// GraphApps lists workloads that take graph inputs.
func GraphApps() []string {
	return []string{"DegreeCount", "NeighborPopulate", "PageRank", "Radii"}
}
