package fault

// Hits reports how many times the named point was reached under the
// active plan: 0 with no active plan (or no rule for the point).
func Hits(point string) uint64 {
	if p := active.Load(); p != nil {
		if r := p.rules[point]; r != nil {
			return r.hits.Load()
		}
	}
	return 0
}
