package obsv

// Test-only views of a registry's names and a progress line's counts,
// and a forced flush of an event log.

import "sort"

// Names returns every registered metric name, sorted — the
// deterministic iteration order for reports.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.s.mu.RLock()
	defer r.s.mu.RUnlock()
	names := make([]string, 0, len(r.s.counts)+len(r.s.gauges)+len(r.s.hists))
	for n := range r.s.counts {
		names = append(names, n)
	}
	for n := range r.s.gauges {
		names = append(names, n)
	}
	for n := range r.s.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counts returns (done, total, replayed) — test observability.
func (p *Progress) Counts() (done, total, replayed int64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.done.Load(), p.total.Load(), p.replayed.Load()
}

// Flush forces buffered events to the underlying writer.
func (e *EventLog) Flush() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}
