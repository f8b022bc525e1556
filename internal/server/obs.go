package server

import (
	"net/http"
	"strings"

	"csmaterials/internal/obs"
	"csmaterials/internal/serving"
)

// DefaultTraceBuffer is the trace ring-buffer capacity when Options
// does not provide a tracer.
const DefaultTraceBuffer = obs.DefaultTraceBuffer

// traced wraps an API route with request tracing: every request gets a
// trace (advertised in the X-Trace response header and queryable at
// GET /debug/trace/{id} while it remains in the ring buffer), the
// ladder below records its spans into it, and on completion the trace
// is sealed, aggregated into the per-stage histograms, and — when a
// wide-event logger is configured — emitted as one structured JSON
// line carrying the request outcome and stage timings.
func (s *Server) traced(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, tr := s.tracer.Start(r.Context(), route)
		sw := serving.Wrap(w)
		if tr != nil {
			// Sampled out (-trace-sample below 1): no trace, no X-Trace
			// header; the ladder's StartSpan calls all no-op on the
			// untraced context, and the wide event below still fires.
			sw.Header().Set("X-Trace", tr.ID())
		}
		next.ServeHTTP(sw, r.WithContext(ctx))
		s.tracer.Finish(tr)
		s.logWideEvent(route, r, sw, tr)
	})
}

// requestEvent is the sampled request's wide event. Its fields are in
// sorted key order and omitempty marks exactly the keys that appear only
// sometimes, so it encodes to the bytes of the same event as a map
// (TestWideEventGolden pins them).
type requestEvent struct {
	Breaker string      `json:"breaker,omitempty"`
	Bytes   int64       `json:"bytes"`
	Cache   string      `json:"cache,omitempty"`
	Dataset string      `json:"dataset,omitempty"`
	DurMS   float64     `json:"dur_ms"`
	Event   string      `json:"event"`
	Method  string      `json:"method"`
	Path    string      `json:"path"`
	Query   string      `json:"query,omitempty"`
	Route   string      `json:"route"`
	Spans   []eventSpan `json:"spans"`
	Status  int         `json:"status"`
	Trace   string      `json:"trace"`
	TS      string      `json:"ts"`
}

// eventSpan is one stage timing of a requestEvent.
type eventSpan struct {
	Analysis string  `json:"analysis,omitempty"`
	Dataset  string  `json:"dataset,omitempty"`
	MS       float64 `json:"ms"`
	Name     string  `json:"name"`
}

// unsampledEvent is the wide event of a request the tracer sampled out.
type unsampledEvent struct {
	Bytes   int64  `json:"bytes"`
	Event   string `json:"event"`
	Method  string `json:"method"`
	Path    string `json:"path"`
	Query   string `json:"query,omitempty"`
	Route   string `json:"route"`
	Sampled bool   `json:"sampled"`
	Status  int    `json:"status"`
	TS      string `json:"ts"`
}

// logWideEvent emits the one-line-per-request access event: route,
// status, duration, trace ID, per-stage timings, and the serving
// outcome derived from the span record.
func (s *Server) logWideEvent(route string, r *http.Request, sw *serving.StatusWriter, tr *obs.Trace) {
	if s.events == nil {
		return
	}
	status := sw.Status
	if !sw.Wrote() {
		status = http.StatusOK
	}
	if tr == nil {
		// Sampled-out request: no spans or stage timings, but the access
		// log stays complete — every request still emits one line.
		ev := unsampledEvent{Bytes: sw.Bytes, Event: "request", Method: r.Method, Path: r.URL.Path,
			Query: r.URL.RawQuery, Route: route, Status: status}
		s.events.Encode(&ev, &ev.TS)
		return
	}
	rec := tr.Record()
	ev := requestEvent{Bytes: sw.Bytes, Cache: traceOutcome(rec), DurMS: rec.DurationMS, Event: "request",
		Method: r.Method, Path: r.URL.Path, Query: r.URL.RawQuery, Route: route,
		Spans: make([]eventSpan, len(rec.Spans)), Status: status, Trace: rec.ID}
	for i, sp := range rec.Spans {
		ev.Spans[i] = eventSpan{Analysis: sp.Analysis, Dataset: sp.Dataset, MS: sp.DurationMS, Name: sp.Name}
		if ev.Dataset == "" {
			ev.Dataset = sp.Dataset
		}
	}
	if hasSpan(rec, "breaker-open") {
		ev.Breaker = "open"
	}
	s.events.Encode(&ev, &ev.TS)
}

// traceOutcome classifies how the ladder answered: "hit" (held answer
// or shared flight), then "miss" (computed here); "" when the request
// never touched the cache (lists, health).
func traceOutcome(rec obs.TraceRecord) string {
	switch {
	case hasSpan(rec, "cache-hit"), hasSpan(rec, "singleflight-join"):
		return "hit"
	case hasSpan(rec, "cache-miss"):
		return "miss"
	}
	return ""
}

func hasSpan(rec obs.TraceRecord, name string) bool {
	for _, sp := range rec.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// handleTraceList serves GET /debug/trace: the retained trace IDs
// (most recent first) plus the tracer counters, so an operator can
// find a trace without knowing its ID.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	serving.WriteJSON(w, http.StatusOK, struct {
		Tracer obs.TracerStats `json:"tracer"`
		Traces []string        `json:"traces"`
	}{Tracer: s.tracer.Stats(), Traces: s.tracer.IDs()})
}

// handleTrace serves GET /debug/trace/{id}: the full span record of
// one retained trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSpace(r.PathValue("id"))
	rec, ok := s.tracer.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			"no trace %q in the ring buffer (capacity %d; traces are evicted oldest-first)",
			id, s.tracer.Stats().Capacity)
		return
	}
	serving.WriteJSON(w, http.StatusOK, rec)
}
