package obsv

// Structured JSONL event log. Every line is one self-contained JSON
// object with a monotonic sequence number, a timestamp, and an event
// name — the machine-readable companion to the human progress line.
// Events stream to their own file (never stdout), so figure table
// bytes stay byte-identical with and without an event log attached.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// EventLog appends structured events as JSON lines. A nil *EventLog is
// a valid no-op sink, so instrumented code never branches on "events
// enabled". Safe for concurrent use.
type EventLog struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	seq uint64
	err error
	now func() time.Time // test hook
}

// NewEventLog wraps a writer as an event sink. If w is also an
// io.Closer, Close will close it.
func NewEventLog(w io.Writer) *EventLog {
	e := &EventLog{w: bufio.NewWriter(w), now: time.Now}
	if c, ok := w.(io.Closer); ok {
		e.c = c
	}
	return e
}

// CreateEventLog opens (truncating) an event-log file at path. Event
// logs are append streams, not artifacts: they are written directly
// (no temp+rename) so a crash leaves the events emitted so far.
func CreateEventLog(path string) (*EventLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obsv: creating event log: %w", err)
	}
	return NewEventLog(f), nil
}

// event is the wire form of one line. Fields are flattened into the
// same object to keep lines greppable (jq '.ev == "cell_done"').
type event struct {
	Seq    uint64         `json:"seq"`
	Time   string         `json:"ts"`
	Name   string         `json:"ev"`
	Fields map[string]any `json:"f,omitempty"`
}

// Emit appends one event line. Field maps are encoded with sorted keys
// (encoding/json's map order), so identical events are byte-identical.
// Emit on a nil log is a no-op. The first write error sticks and is
// reported by Close.
func (e *EventLog) Emit(name string, fields map[string]any) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	line, err := json.Marshal(event{
		Seq:    e.seq,
		Time:   e.now().UTC().Format(time.RFC3339Nano),
		Name:   name,
		Fields: fields,
	})
	if err != nil {
		e.err = fmt.Errorf("obsv: encoding event %q: %w", name, err)
		return
	}
	e.seq++
	if _, err := e.w.Write(append(line, '\n')); err != nil {
		e.err = fmt.Errorf("obsv: writing event log: %w", err)
	}
}

// Close flushes and closes the log, returning the first error the log
// hit at any point. Close on a nil log is a no-op.
func (e *EventLog) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ferr := e.w.Flush(); e.err == nil && ferr != nil {
		e.err = fmt.Errorf("obsv: flushing event log: %w", ferr)
	}
	if e.c != nil {
		if cerr := e.c.Close(); e.err == nil && cerr != nil {
			e.err = fmt.Errorf("obsv: closing event log: %w", cerr)
		}
		e.c = nil
	}
	return e.err
}
