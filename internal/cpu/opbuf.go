package cpu

// OpBuf is the issue handle of an earlier design that buffered
// micro-ops and retired them in batches. It buffers nothing: its
// methods are the Core's own, so every op has resolved and retired by
// the time its issue method returns. It remains for callers written
// against the buffer.
type OpBuf struct{ *Core }

// NewOpBuf returns an issue handle for c.
func NewOpBuf(c *Core) *OpBuf { return &OpBuf{c} }

// Flush does nothing: no op is ever pending. It remains for callers
// written against the buffer, which had to flush before reading the
// clock.
func (b *OpBuf) Flush() {}
