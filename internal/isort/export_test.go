package isort

// Test-only helper: the sorts are checked for order in this package's
// tests alone.

// IsSorted reports whether keys is non-decreasing.
func IsSorted(keys []uint32) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}
