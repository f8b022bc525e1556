package obs

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// fakeClock advances a fixed step per read, making span sequences and
// durations fully deterministic.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func TestSpanSequenceAndRecord(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	tr := NewTracer(4, clock.Now)
	ctx, trace := tr.Start(context.Background(), "GET /api/v1/types")
	ctx = WithAnalysis(ctx, "types")

	sp := StartSpan(ctx, "cache-lookup")
	sp.EndAs("cache-miss")
	cs := StartSpan(ctx, "compute")
	cs.End()
	start := Now(ctx)
	AddSpan(ctx, "singleflight-join", start)
	AddSpan(ctx, "breaker-open", time.Time{}) // instantaneous mark
	tr.Finish(trace)

	want := []string{"cache-miss", "compute", "singleflight-join", "breaker-open"}
	if got := trace.SpanNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("span sequence = %v, want %v", got, want)
	}

	rec, ok := tr.Get(trace.ID())
	if !ok {
		t.Fatalf("trace %q not in ring", trace.ID())
	}
	if rec.Label != "GET /api/v1/types" {
		t.Fatalf("label = %q", rec.Label)
	}
	if len(rec.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(rec.Spans))
	}
	for i, sr := range rec.Spans {
		if sr.Name != want[i] {
			t.Fatalf("span %d = %q, want %q", i, sr.Name, want[i])
		}
		if sr.Analysis != "types" {
			t.Fatalf("span %d analysis = %q, want types", i, sr.Analysis)
		}
		if sr.Open {
			t.Fatalf("span %d unexpectedly open", i)
		}
	}
	// Each clock read advances 1ms: every timed span covers exactly one
	// step of the fake clock.
	if rec.Spans[0].DurationMS != 1 { // lint:exact — fake clock advances exactly 1ms per read
		t.Fatalf("span 0 duration = %v ms, want 1", rec.Spans[0].DurationMS)
	}
	if rec.Spans[3].DurationMS != 0 { // lint:exact — instantaneous mark has exactly zero duration
		t.Fatalf("instant span duration = %v ms, want 0", rec.Spans[3].DurationMS)
	}
	if rec.DurationMS <= 0 {
		t.Fatalf("trace duration = %v, want > 0", rec.DurationMS)
	}
}

func TestNilSafety(t *testing.T) {
	// No trace in context: every entry point must be a no-op.
	ctx := context.Background()
	sp := StartSpan(ctx, "compute")
	sp.End()
	sp.EndAs("compute-error")
	sp.SetAnalysis("types")
	AddSpan(ctx, "cache-hit", time.Time{})
	if !Now(ctx).IsZero() {
		t.Fatal("Now without a trace should be the zero time")
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext without a trace should be nil")
	}
	if AnalysisFromContext(ctx) != "" {
		t.Fatal("AnalysisFromContext without a label should be empty")
	}
	var l *Logger
	l.Event("request", nil) // nil logger is a valid sink
	l.SetClock(time.Now)
	if l.Drops() != 0 {
		t.Fatal("nil logger drops != 0")
	}
}

func TestSealedTraceRefusesLateSpans(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	tr := NewTracer(4, clock.Now)
	ctx, trace := tr.Start(context.Background(), "r")
	StartSpan(ctx, "compute").End()
	tr.Finish(trace)
	if sp := StartSpan(ctx, "store"); sp != nil {
		t.Fatal("sealed trace accepted a new span")
	}
	AddSpan(ctx, "late", time.Time{})
	if got := len(trace.SpanNames()); got != 1 {
		t.Fatalf("sealed trace has %d spans, want 1", got)
	}
	// Finishing twice must not double-aggregate or re-admit.
	tr.Finish(trace)
	if st := tr.Stats(); st.Finished != 1 {
		t.Fatalf("finished = %d, want 1", st.Finished)
	}
}

func TestSpanBufferBound(t *testing.T) {
	clock := newFakeClock(time.Microsecond)
	tr := NewTracer(4, clock.Now)
	ctx, trace := tr.Start(context.Background(), "r")
	for i := 0; i < MaxSpans+10; i++ {
		StartSpan(ctx, "compute").End()
	}
	tr.Finish(trace)
	rec, _ := tr.Get(trace.ID())
	if len(rec.Spans) != MaxSpans {
		t.Fatalf("got %d spans, want cap %d", len(rec.Spans), MaxSpans)
	}
	if rec.DroppedSpans != 10 {
		t.Fatalf("dropped = %d, want 10", rec.DroppedSpans)
	}
}

func TestOpenSpanMarkedInRecord(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	tr := NewTracer(4, clock.Now)
	ctx, trace := tr.Start(context.Background(), "r")
	_ = StartSpan(ctx, "compute") // never ended: detached work still running
	tr.Finish(trace)
	rec, _ := tr.Get(trace.ID())
	if len(rec.Spans) != 1 || !rec.Spans[0].Open {
		t.Fatalf("open span not marked: %+v", rec.Spans)
	}
	// Open spans are excluded from the stage histograms.
	if stages := tr.StageSnapshot(); len(stages) != 0 {
		t.Fatalf("open span was aggregated: %+v", stages)
	}
}

func TestStageAggregation(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	tr := NewTracer(4, clock.Now)
	for i := 0; i < 3; i++ {
		ctx, trace := tr.Start(context.Background(), "r")
		ctx = WithAnalysis(ctx, "types")
		StartSpan(ctx, "compute").End()
		tr.Finish(trace)
	}
	stages := tr.StageSnapshot()
	if len(stages) != 1 {
		t.Fatalf("got %d stage series, want 1: %+v", len(stages), stages)
	}
	s := stages[0]
	if s.Analysis != "types" || s.Stage != "compute" || s.Count != 3 {
		t.Fatalf("unexpected series: %+v", s)
	}
	if len(s.Counts) != len(StageBucketsSeconds)+1 {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(StageBucketsSeconds)+1)
	}
	var total uint64
	for _, n := range s.Counts {
		total += n
	}
	if total != 3 {
		t.Fatalf("bucket total = %d, want 3", total)
	}
}
