package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Logger emits structured wide events: one JSON object per line, keys
// sorted (encoding/json map ordering, or a struct's fields declared in
// that order), suitable for machine ingestion.
// Unlike fmt.Fprintf to a file, write and encode errors are not
// dropped: they are counted and exposed via Drops (and from there the
// /metrics surface), so a broken log pipe under a daemon is visible
// instead of silent. A nil *Logger is a valid no-op sink, letting
// callers wire logging unconditionally.
type Logger struct {
	clock func() time.Time

	mu    sync.Mutex
	w     io.Writer
	drops uint64
}

// NewLogger returns a logger writing one JSON line per event to w.
// A nil w yields a nil (no-op) logger.
func NewLogger(w io.Writer) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{clock: time.Now, w: w}
}

// SetClock replaces the timestamp source (tests inject a fake clock
// for byte-stable lines). No-op on a nil logger.
func (l *Logger) SetClock(clock func() time.Time) {
	if l == nil || clock == nil {
		return
	}
	l.mu.Lock()
	l.clock = clock
	l.mu.Unlock()
}

// Event emits one wide-event line: fields plus "event" set to event
// and "ts" set to the clock's RFC3339Nano now. The fields map is not
// retained. Encode or write failures increment the drop counter.
func (l *Logger) Event(event string, fields map[string]interface{}) {
	if l == nil {
		return
	}
	line := make(map[string]interface{}, len(fields)+2)
	for k, v := range fields {
		line[k] = v
	}
	line["event"] = event
	l.encode(line, func(now string) { line["ts"] = now })
}

// Encode emits one wide-event line from v, a struct (or pointer to one)
// that declares its fields in the sorted-key order Event's map encoding
// produces, "event" and "ts" among them, so it encodes to the bytes
// Event would write for the same keys without building or sorting a
// map. ts points at v's "ts" field; Encode sets it to the clock's
// RFC3339Nano now. Failures count as drops, as for Event.
func (l *Logger) Encode(v interface{}, ts *string) {
	if l == nil {
		return
	}
	l.encode(v, func(now string) { *ts = now })
}

// encode stamps the line with the clock's now and writes it, under the
// lock so timestamps ascend in write order.
func (l *Logger) encode(v interface{}, stamp func(now string)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	stamp(l.clock().UTC().Format(time.RFC3339Nano))
	// One encoder per line: an Encoder keeps its first write error and
	// refuses every later line, and the log must retry. Encode writes
	// the line and its newline in one Write, or nothing if v does not
	// encode.
	if err := json.NewEncoder(l.w).Encode(v); err != nil {
		l.drops++
	}
}

// Drops returns how many events failed to encode or write.
func (l *Logger) Drops() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.drops
}
