package engine_test

import (
	"context"
	"fmt"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"csmaterials/internal/engine"
	"csmaterials/internal/obs"
)

// tickClock advances a fixed step per read so span sequences are
// deterministic regardless of scheduler timing. It is mutex-guarded:
// the tracer and each trace serialize their own clock reads, but
// batch workers read through different traces concurrently.
func tickClock() func() time.Time {
	var mu sync.Mutex
	t := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

// runTraced executes one analysis call under a fresh trace and returns
// the recorded span-name sequence.
func runTraced(t *testing.T, tracer *obs.Tracer, e *engine.Executor, name string, values url.Values) ([]string, error) {
	t.Helper()
	ctx, trace := tracer.Start(context.Background(), "test "+name)
	_, _, err := e.Run(ctx, name, values)
	tracer.Finish(trace)
	rec, ok := tracer.Get(trace.ID())
	if !ok {
		t.Fatalf("trace %s not retained", trace.ID())
	}
	names := make([]string, len(rec.Spans))
	for i, sp := range rec.Spans {
		names[i] = sp.Name
		if sp.Analysis != name {
			t.Fatalf("span %q analysis = %q, want %q", sp.Name, sp.Analysis, name)
		}
	}
	return names, err
}

// TestTraceSpanSequences is the golden test of the tracing contract:
// each ladder path records a fixed, ordered span sequence.
func TestTraceSpanSequences(t *testing.T) {
	f := newFake("types")
	e, _, _ := newFakeExecutor(f)
	tracer := obs.NewTracer(16, tickClock())

	// Cold: full ladder walk.
	cold, err := runTraced(t, tracer, e, "types", url.Values{"key": {"a"}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"parse", "cache-miss", "singleflight-lead", "breaker-allow", "compute", "store"}
	if !reflect.DeepEqual(cold, want) {
		t.Fatalf("cold spans = %v, want %v", cold, want)
	}

	// Warm: the cache answers before the flight layer is touched.
	warm, err := runTraced(t, tracer, e, "types", url.Values{"key": {"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"parse", "cache-hit"}; !reflect.DeepEqual(warm, want) {
		t.Fatalf("warm spans = %v, want %v", warm, want)
	}

	// Parse failure: the ladder is never entered.
	bad, err := runTraced(t, tracer, e, "types", url.Values{"key": {"unparsable"}})
	if err == nil {
		t.Fatal("want parse error")
	}
	if want := []string{"parse-error"}; !reflect.DeepEqual(bad, want) {
		t.Fatalf("parse-error spans = %v, want %v", bad, want)
	}
}

// TestTraceComputeErrorSpans: under a failing compute, an answer that
// is not held walks the ladder to a compute-error span and returns the
// error, while a held answer records a hit and nothing after it.
func TestTraceComputeErrorSpans(t *testing.T) {
	f := newFake("types")
	e, _, _ := newFakeExecutor(f)
	tracer := obs.NewTracer(16, tickClock())

	// Hold one answer, then fail the compute.
	if _, err := runTraced(t, tracer, e, "types", url.Values{"key": {"a"}}); err != nil {
		t.Fatal(err)
	}
	f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		return nil, fmt.Errorf("boom")
	})

	spans, err := runTraced(t, tracer, e, "types", url.Values{"key": {"b"}})
	if err == nil {
		t.Fatal("an answer that is not held must return the compute's error")
	}
	want := []string{"parse", "cache-miss", "singleflight-lead", "breaker-allow", "compute-error"}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("compute-error spans = %v, want %v", spans, want)
	}
	spans, err = runTraced(t, tracer, e, "types", url.Values{"key": {"a"}})
	if err != nil {
		t.Fatalf("held answer under a failing compute: %v", err)
	}
	if want := []string{"parse", "cache-hit"}; !reflect.DeepEqual(spans, want) {
		t.Fatalf("held spans = %v, want %v", spans, want)
	}

	// The stage histograms saw every labelled stage.
	stages := tracer.StageSnapshot()
	byStage := map[string]uint64{}
	for _, s := range stages {
		if s.Analysis != "types" {
			t.Fatalf("unexpected analysis label %q", s.Analysis)
		}
		byStage[s.Stage] = s.Count
	}
	for _, stage := range []string{"parse", "cache-miss", "cache-hit", "compute", "compute-error", "store"} {
		if byStage[stage] == 0 {
			t.Fatalf("stage %q missing from aggregates: %v", stage, byStage)
		}
	}
}

func TestBatchTraceSpans(t *testing.T) {
	f := newFake("types")
	e, _, _ := newFakeExecutor(f)
	e.SetBatchWorkers(2)
	tracer := obs.NewTracer(16, tickClock())

	ctx, trace := tracer.Start(context.Background(), "POST /api/v1/batch")
	items := []engine.BatchItem{
		{Analysis: "types", Params: map[string]string{"key": "a"}},
		{Analysis: "types", Params: map[string]string{"key": "b"}},
		{Analysis: "nope"},
	}
	results := e.RunBatch(ctx, items)
	tracer.Finish(trace)
	if results[2].Error == nil || results[2].Error.Status != 404 {
		t.Fatalf("unknown analysis item = %+v", results[2])
	}
	rec, _ := tracer.Get(trace.ID())
	var batchItems, unlabelled, computes int
	for _, sp := range rec.Spans {
		switch {
		case sp.Name == "batch-item":
			batchItems++
			switch sp.Analysis {
			case "types":
			case "":
				unlabelled++
			default:
				t.Fatalf("batch-item span labelled %q", sp.Analysis)
			}
		case sp.Name == "compute":
			computes++
		case strings.HasPrefix(sp.Name, "singleflight-"), sp.Name == "store",
			sp.Name == "cache-miss", sp.Name == "cache-hit",
			strings.HasPrefix(sp.Name, "breaker-"), strings.HasPrefix(sp.Name, "parse"):
			// expected ladder spans
		default:
			t.Fatalf("unexpected span %q", sp.Name)
		}
	}
	if batchItems != 3 || unlabelled != 1 {
		t.Fatalf("batch-item spans = %d, %d of them without an analysis label; want 3, 1 (the unregistered analysis)", batchItems, unlabelled)
	}
	if computes != 2 {
		t.Fatalf("compute spans = %d, want 2 (unknown analysis never computes)", computes)
	}
}

// TestUntracedRunIsCleanNoop proves CLIs and warmup pay nothing: no
// trace in ctx, no spans anywhere, and behavior identical.
func TestUntracedRunIsCleanNoop(t *testing.T) {
	f := newFake("types")
	e, _, _ := newFakeExecutor(f)
	if _, out, err := e.Run(context.Background(), "types", url.Values{"key": {"a"}}); err != nil || out.Cache != "miss" {
		t.Fatalf("untraced run: %v %v", out, err)
	}
}
