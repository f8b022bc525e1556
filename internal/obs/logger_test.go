package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLoggerEventShape(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.SetClock(newFakeClock(time.Second).Now)
	l.Event("request", map[string]interface{}{
		"route":  "GET /api/v1/types",
		"status": 200,
		"dur_ms": 1.5,
		"quoted": `a "b" \c`,
	})
	l.Event("startup", nil)

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var first map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if first["event"] != "request" || first["route"] != "GET /api/v1/types" {
		t.Fatalf("unexpected fields: %v", first)
	}
	if first["quoted"] != `a "b" \c` {
		t.Fatalf("quoting mangled: %q", first["quoted"])
	}
	if _, err := time.Parse(time.RFC3339Nano, first["ts"].(string)); err != nil {
		t.Fatalf("ts not RFC3339Nano: %v", err)
	}
	// encoding/json sorts map keys: the line is byte-stable given a
	// fixed clock, so log processors can diff runs.
	if !strings.HasPrefix(lines[0], `{"dur_ms":1.5,"event":"request"`) {
		t.Fatalf("keys not sorted: %s", lines[0])
	}
	if l.Drops() != 0 {
		t.Fatalf("drops = %d, want 0", l.Drops())
	}
}

type failingWriter struct{ failures int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.failures++
	return 0, errors.New("pipe closed")
}

func TestLoggerCountsDrops(t *testing.T) {
	w := &failingWriter{}
	l := NewLogger(w)
	l.Event("request", nil)
	l.Event("request", map[string]interface{}{"bad": func() {}}) // unencodable
	if l.Drops() != 2 {
		t.Fatalf("drops = %d, want 2", l.Drops())
	}
	if w.failures != 1 {
		t.Fatalf("writer saw %d writes, want 1 (unencodable event never reaches it)", w.failures)
	}
}

func TestLoggerConcurrentEvents(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Event("request", map[string]interface{}{"n": j})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		var v map[string]interface{}
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("interleaved line %q: %v", line, err)
		}
	}
}

// TestLoggerEncodeMatchesEvent: a struct declaring its keys in sorted
// order, "event" and "ts" among them, encodes to the line Event writes
// for the same keys, and a failed write counts as a drop.
func TestLoggerEncodeMatchesEvent(t *testing.T) {
	type line struct {
		Bytes int64   `json:"bytes"`
		DurMS float64 `json:"dur_ms"`
		Event string  `json:"event"`
		Query string  `json:"query,omitempty"`
		TS    string  `json:"ts"`
	}
	var mapped, encoded bytes.Buffer
	for _, buf := range []*bytes.Buffer{&mapped, &encoded} {
		l := NewLogger(buf)
		l.SetClock(newFakeClock(time.Second).Now)
		if buf == &mapped {
			l.Event("request", map[string]interface{}{"bytes": int64(3), "dur_ms": 0.25, "query": "a&b< "})
			l.Event("request", map[string]interface{}{"bytes": int64(0), "dur_ms": 1e-7})
			continue
		}
		v := line{Bytes: 3, DurMS: 0.25, Event: "request", Query: "a&b< "}
		l.Encode(&v, &v.TS)
		v = line{DurMS: 1e-7, Event: "request"}
		l.Encode(&v, &v.TS)
	}
	if encoded.String() != mapped.String() {
		t.Fatalf("Encode wrote\n%s\nEvent wrote\n%s", encoded.String(), mapped.String())
	}

	w := &failingWriter{}
	l := NewLogger(w)
	var v line
	l.Encode(&v, &v.TS)
	l.Encode(&v, &v.TS)
	if l.Drops() != 2 || w.failures != 2 {
		t.Fatalf("drops = %d after %d failed writes, want 2 and 2", l.Drops(), w.failures)
	}
	var nilLogger *Logger
	nilLogger.Encode(&v, &v.TS)
}
