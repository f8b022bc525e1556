package obs

import (
	"sync"
	"time"
)

// MaxSpans bounds one trace's span buffer. A full batch (64 items × ~7
// ladder spans each) fits with headroom; beyond the bound spans are
// counted as dropped rather than grown without limit, so a pathological
// request cannot hold the ring buffer's memory hostage.
const MaxSpans = 512

// Trace is one request's ordered span record. Spans are appended in
// start order under the trace mutex; concurrent writers (batch
// workers) interleave safely and the sequence records genuine start
// order. After Finish the trace is sealed: late span starts (e.g. a
// singleflight flight that outlives its request) are refused so the
// ring buffer holds immutable records.
type Trace struct {
	id    string
	label string
	clock func() time.Time

	mu      sync.Mutex
	start   time.Time
	end     time.Time
	done    bool
	spans   []*Span
	dropped int
}

// ID returns the trace identifier (the X-Trace header value).
func (tr *Trace) ID() string { return tr.id }

// Label returns the request label the trace was started with.
func (tr *Trace) Label() string { return tr.label }

// now reads the trace's clock.
func (tr *Trace) now() time.Time { return tr.clock() }

// startSpan appends an open span; nil when the trace is sealed or full.
func (tr *Trace) startSpan(name, analysis, dataset string) *Span {
	ts := tr.clock()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return nil
	}
	if len(tr.spans) >= MaxSpans {
		tr.dropped++
		return nil
	}
	sp := &Span{tr: tr, name: name, analysis: analysis, dataset: dataset, start: ts.Sub(tr.start), end: -1}
	tr.spans = append(tr.spans, sp)
	return sp
}

// addSpan appends a completed span ending now; zero start means
// instantaneous.
func (tr *Trace) addSpan(name, analysis, dataset string, start time.Time) {
	end := tr.clock()
	if start.IsZero() {
		start = end
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return
	}
	if len(tr.spans) >= MaxSpans {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, &Span{tr: tr, name: name, analysis: analysis, dataset: dataset,
		start: start.Sub(tr.start), end: end.Sub(tr.start)})
}

// finish seals the trace and returns a snapshot of its completed spans
// for aggregation. Idempotent; only the first call seals.
func (tr *Trace) finish() []*Span {
	end := tr.clock()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return nil
	}
	tr.done = true
	tr.end = end
	out := make([]*Span, len(tr.spans))
	copy(out, tr.spans)
	return out
}

// Span is one named, timed stage inside a trace. End (or EndAs, when
// the final name depends on the outcome) completes it; both are
// nil-safe so instrumented code needs no trace-presence checks.
type Span struct {
	tr       *Trace
	name     string
	analysis string
	dataset  string
	// start and end are offsets from the trace's start, so every
	// duration is one int64 difference; a negative end marks a span
	// that is still open.
	start, end time.Duration
}

// open reports whether the span has not ended yet.
func (s *Span) open() bool { return s.end < 0 }

// End completes the span.
func (s *Span) End() {
	if s == nil {
		return
	}
	ts := s.tr.clock().Sub(s.tr.start)
	s.tr.mu.Lock()
	s.end = ts
	s.tr.mu.Unlock()
}

// EndAs completes the span under its outcome name — a span started as
// "cache-lookup" ends as "cache-hit" or "cache-miss" while keeping its
// position in start order.
func (s *Span) EndAs(name string) {
	if s == nil {
		return
	}
	ts := s.tr.clock().Sub(s.tr.start)
	s.tr.mu.Lock()
	s.name = name
	s.end = ts
	s.tr.mu.Unlock()
}

// SetAnalysis overrides the span's analysis label (batch items learn
// theirs after the span opened).
func (s *Span) SetAnalysis(name string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.analysis = name
	s.tr.mu.Unlock()
}

// SetDataset overrides the span's dataset label (batch items learn
// theirs after the span opened).
func (s *Span) SetDataset(id string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.dataset = id
	s.tr.mu.Unlock()
}

// SpanRecord is the JSON form of one span in a trace record.
type SpanRecord struct {
	Name     string  `json:"name"`
	Analysis string  `json:"analysis,omitempty"`
	Dataset  string  `json:"dataset,omitempty"`
	OffsetMS float64 `json:"offset_ms"`
	// DurationMS is the span's wall time; 0 for instantaneous marks.
	DurationMS float64 `json:"duration_ms"`
	// Open marks a span that had not ended when the trace finished
	// (a compute still running detached for a departed client).
	Open bool `json:"open,omitempty"`
}

// TraceRecord is the JSON form of a finished trace, served at
// GET /debug/trace/{id}.
type TraceRecord struct {
	ID           string       `json:"id"`
	Label        string       `json:"label"`
	Start        time.Time    `json:"start"`
	DurationMS   float64      `json:"duration_ms"`
	Spans        []SpanRecord `json:"spans"`
	DroppedSpans int          `json:"dropped_spans,omitempty"`
}

// Record snapshots the trace into its serializable form.
func (tr *Trace) Record() TraceRecord {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rec := TraceRecord{
		ID:           tr.id,
		Label:        tr.label,
		Start:        tr.start,
		Spans:        make([]SpanRecord, 0, len(tr.spans)),
		DroppedSpans: tr.dropped,
	}
	if !tr.end.IsZero() {
		rec.DurationMS = ms(tr.end.Sub(tr.start))
	}
	for _, sp := range tr.spans {
		sr := SpanRecord{
			Name:     sp.name,
			Analysis: sp.analysis,
			Dataset:  sp.dataset,
			OffsetMS: ms(sp.start),
		}
		if sp.open() {
			sr.Open = true
		} else {
			sr.DurationMS = ms(sp.end - sp.start)
		}
		rec.Spans = append(rec.Spans, sr)
	}
	return rec
}

// SpanNames returns the trace's span names in start order (the
// golden-testable sequence).
func (tr *Trace) SpanNames() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]string, len(tr.spans))
	for i, sp := range tr.spans {
		out[i] = sp.name
	}
	return out
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
