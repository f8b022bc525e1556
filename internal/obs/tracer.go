package obs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultTraceBuffer is the ring-buffer capacity used when a Tracer is
// built with a non-positive one.
const DefaultTraceBuffer = 256

// StageBucketsSeconds are the per-stage latency histogram upper bounds,
// in seconds (Prometheus convention); the final implicit bucket is
// +Inf. Sub-millisecond buckets matter here: warm-path stages (cache
// hits, breaker decisions) complete in microseconds and would otherwise
// all land in one bucket.
var StageBucketsSeconds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// stageKey identifies one (dataset, analysis, stage) histogram series.
type stageKey struct {
	dataset  string
	analysis string
	stage    string
}

// Tracer mints request traces, retains the most recent finished ones
// in a fixed-size ring buffer queryable by ID, and folds every
// finished span into per-(analysis, stage) latency histograms. The
// clock is injectable so tests can golden span sequences and
// durations; nil means time.Now. All methods are safe for concurrent
// use.
type Tracer struct {
	clock func() time.Time

	mu   sync.Mutex
	seq  uint64
	ring []*Trace // circular, len = capacity; nil slots are unused
	// next is the ring slot the next finished trace takes, evicting
	// (overwriting) the oldest when the ring is full.
	next       int
	byID       map[string]*Trace // exactly the traces in ring
	started    uint64
	finished   uint64
	sampledOut uint64
	sampleRate float64 // probability a Start mints a trace; 1 = always
	stages     map[stageKey]*Hist
}

// NewTracer returns a tracer retaining the last capacity finished
// traces (DefaultTraceBuffer when capacity <= 0) and reading the given
// clock (time.Now when nil).
func NewTracer(capacity int, clock func() time.Time) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceBuffer
	}
	if clock == nil {
		clock = time.Now
	}
	return &Tracer{
		clock:      clock,
		ring:       make([]*Trace, capacity),
		sampleRate: 1,
		byID:       make(map[string]*Trace),
		stages:     make(map[stageKey]*Hist),
	}
}

// SetSampleRate sets the probability that Start mints a trace, for
// fleet-scale deployments where tracing every request is too much
// retention churn. Values are clamped to [0, 1]; 1 (the default)
// traces everything, 0 nothing. The decision is deterministic in the
// request sequence number — a hash of the counter compared against the
// rate — so a given rate yields an exact long-run proportion rather
// than a noisy one, and tests can golden it.
func (t *Tracer) SetSampleRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	t.mu.Lock()
	t.sampleRate = rate
	t.mu.Unlock()
}

// sampleMix is the splitmix64 finalizer: it turns the monotonic
// sequence counter into a uniform 64-bit value so comparing against
// rate*2^64 samples the exact requested proportion deterministically.
func sampleMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Start mints a new trace labelled label (typically the route
// pattern), stores it in the returned context, and returns both. The
// trace ID is a process-unique monotonic hex token.
//
// When a sample rate below 1 is set, Start may instead decide not to
// trace this request: it returns (ctx, nil) with the context
// unchanged. A nil *Trace is safe everywhere downstream — StartSpan on
// an untraced context returns a nil Span, whose methods are no-ops —
// so instrumented code needs no sampling awareness. Callers that touch
// the trace directly (Finish, ID) must check for nil.
func (t *Tracer) Start(ctx context.Context, label string) (context.Context, *Trace) {
	start := t.clock()
	t.mu.Lock()
	t.seq++
	if t.sampleRate < 1 && float64(sampleMix(t.seq))/(1<<64) >= t.sampleRate {
		t.sampledOut++
		t.mu.Unlock()
		return ctx, nil
	}
	t.started++
	id := fmt.Sprintf("%08x", t.seq)
	t.mu.Unlock()
	tr := &Trace{id: id, label: label, clock: t.clock, start: start}
	return NewContext(ctx, tr), tr
}

// Finish seals tr, aggregates its completed spans into the stage
// histograms, and admits it to the ring buffer, evicting the oldest
// finished trace when full. Finishing a trace twice is a no-op, as is
// finishing a nil trace (a sampled-out request).
func (t *Tracer) Finish(tr *Trace) {
	if tr == nil {
		return
	}
	spans := tr.finish()
	if spans == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished++
	for _, sp := range spans {
		if sp.open() {
			continue // nothing meaningful to aggregate
		}
		t.observeLocked(sp.dataset, sp.analysis, sp.name, (sp.end - sp.start).Seconds())
	}
	if oldest := t.ring[t.next]; oldest != nil {
		delete(t.byID, oldest.id)
	}
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	t.byID[tr.id] = tr
}

// observeLocked folds one duration into the (dataset, analysis, stage)
// histogram; callers hold t.mu.
func (t *Tracer) observeLocked(dataset, analysis, stage string, seconds float64) {
	k := stageKey{dataset: dataset, analysis: analysis, stage: stage}
	h, ok := t.stages[k]
	if !ok {
		h = NewHist(StageBucketsSeconds)
		t.stages[k] = h
	}
	h.Observe(seconds)
}

// Get returns the finished trace with the given ID, if it is still in
// the ring buffer.
func (t *Tracer) Get(id string) (TraceRecord, bool) {
	t.mu.Lock()
	tr, ok := t.byID[id]
	t.mu.Unlock()
	if !ok {
		return TraceRecord{}, false
	}
	return tr.Record(), true
}

// IDs returns the retained trace IDs, most recent first.
func (t *Tracer) IDs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.byID))
	for i := 1; i <= len(t.byID); i++ {
		out = append(out, t.ring[(t.next-i+len(t.ring))%len(t.ring)].id)
	}
	return out
}

// StageExport is one (dataset, analysis, stage) latency histogram, in
// seconds over StageBucketsSeconds. Dataset is "" for spans recorded
// outside any dataset scope.
type StageExport struct {
	Dataset  string
	Analysis string
	Stage    string
	Hist
}

// StageSnapshot returns every stage histogram, sorted by (analysis,
// dataset, stage) for deterministic exposition.
func (t *Tracer) StageSnapshot() []StageExport {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageExport, 0, len(t.stages))
	for k, h := range t.stages {
		out = append(out, StageExport{Dataset: k.dataset, Analysis: k.analysis, Stage: k.stage, Hist: h.Clone()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Analysis != out[j].Analysis {
			return out[i].Analysis < out[j].Analysis
		}
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// DropDataset deletes every stage-histogram series labelled with the
// given dataset, returning how many were removed. Deleting a dataset
// must not leave its label values behind in the exposition; retained
// ring traces are untouched (they are bounded and age out on their
// own).
func (t *Tracer) DropDataset(dataset string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for k := range t.stages {
		if k.dataset == dataset {
			delete(t.stages, k)
			n++
		}
	}
	return n
}

// TracerStats is the tracer section of the metrics surface.
type TracerStats struct {
	Started    uint64  `json:"started_total"`
	Finished   uint64  `json:"finished_total"`
	SampledOut uint64  `json:"sampled_out_total"`
	SampleRate float64 `json:"sample_rate"`
	RingSize   int     `json:"ring_size"`
	Capacity   int     `json:"ring_capacity"`
}

// Stats snapshots the tracer counters.
func (t *Tracer) Stats() TracerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TracerStats{
		Started:    t.started,
		Finished:   t.finished,
		SampledOut: t.sampledOut,
		SampleRate: t.sampleRate,
		RingSize:   len(t.byID),
		Capacity:   len(t.ring),
	}
}
