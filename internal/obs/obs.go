// Package obs is the observability layer: request-scoped tracing
// through the serving ladder, per-analysis/per-stage latency
// aggregation, Prometheus text exposition, and structured wide-event
// logging. It is stdlib-only and dependency-free so every other layer
// (serving, engine, server, cmd) can import it without cycles.
//
// The tracing contract: a Tracer mints one Trace per request and
// stores it in the request context; instrumented code anywhere below
// (the cache, the singleflight group, the engine executor, the batch
// workers) calls StartSpan/AddSpan against that context. Spans are
// appended in START order under the trace's mutex, so the span
// sequence of a request is a deterministic record of the path it took
// through the ladder — golden-testable with an injectable clock —
// while remaining race-clean under concurrent batch workers. All
// span-recording entry points are nil-safe no-ops when the context
// carries no trace, so compute paths never pay more than one context
// lookup when tracing is off (CLIs, warmup).
//
// Span taxonomy (the stage names the executor and cache emit):
//
//	parse | parse-error
//	cache-hit | cache-miss
//	singleflight-lead | singleflight-join
//	breaker-allow | breaker-open
//	compute | compute-error | compute-canceled
//	store
//	batch-item
//
// Finished traces land in the Tracer's fixed-size ring buffer,
// queryable by ID (the X-Trace response header), and their spans are
// folded into per-(analysis, stage) latency histograms exported in
// Prometheus exposition format. Hist is the one histogram type: it
// backs these and the serving layer's per-route request latency.
// DESIGN §10 documents the contract.
package obs

import (
	"context"
	"time"
)

// ctxKey is the private context key namespace for this package.
type ctxKey int

const (
	traceKey ctxKey = iota
	analysisKey
	datasetKey
)

// NewContext returns ctx carrying tr.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey, tr)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey).(*Trace)
	return tr
}

// WithAnalysis returns ctx labelled with the analysis name; spans
// started under it carry the label into the per-analysis histograms.
func WithAnalysis(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, analysisKey, name)
}

// AnalysisFromContext returns the analysis label carried by ctx ("" if
// none).
func AnalysisFromContext(ctx context.Context) string {
	name, _ := ctx.Value(analysisKey).(string)
	return name
}

// WithDataset returns ctx labelled with the dataset ID; spans started
// under it carry the label into the per-(dataset, analysis) histograms.
func WithDataset(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, datasetKey, id)
}

// DatasetFromContext returns the dataset label carried by ctx ("" if
// none).
func DatasetFromContext(ctx context.Context) string {
	id, _ := ctx.Value(datasetKey).(string)
	return id
}

// StartSpan appends a new span named name to the trace carried by ctx
// and returns it; the span inherits ctx's analysis and dataset labels.
// It returns nil (safe to End/EndAs) when ctx carries no trace or the
// trace is already finished.
func StartSpan(ctx context.Context, name string) *Span {
	tr := FromContext(ctx)
	if tr == nil {
		return nil
	}
	return tr.startSpan(name, AnalysisFromContext(ctx), DatasetFromContext(ctx))
}

// AddSpan appends an already-completed span: started at start (or
// instantaneous when start is the zero time) and ending now. Use it
// when the span's very name depends on an outcome observed after the
// fact — e.g. a singleflight join whose wait began before the role was
// known. No-op without a trace in ctx.
func AddSpan(ctx context.Context, name string, start time.Time) {
	tr := FromContext(ctx)
	if tr == nil {
		return
	}
	tr.addSpan(name, AnalysisFromContext(ctx), DatasetFromContext(ctx), start)
}

// Now reads the clock of the trace carried by ctx, for measuring a
// span's start before its name is known (pair with AddSpan). It
// returns the zero time when ctx carries no trace, so untraced paths
// never touch a clock.
func Now(ctx context.Context) time.Time {
	tr := FromContext(ctx)
	if tr == nil {
		return time.Time{}
	}
	return tr.now()
}
