package server

import (
	"bytes"
	"context"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"csmaterials/internal/obs"
)

// newObsServer builds a server with explicit options and no warmup, so
// the first request of a test is genuinely cold.
func newObsServer(t *testing.T, o Options) *Server {
	t.Helper()
	o.disableWarmup = true
	s, err := NewWithOptions(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do drives one request synchronously through the full middleware
// stack: when it returns, the trace is finished and any wide event has
// been written — no network, no races.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// traceRecord fetches /debug/trace/{id} and decodes the span record.
func traceRecord(t *testing.T, s *Server, id string) obs.TraceRecord {
	t.Helper()
	w := do(t, s, http.MethodGet, "/debug/trace/"+id, "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /debug/trace/%s: status %d\n%s", id, w.Code, w.Body.Bytes())
	}
	var rec obs.TraceRecord
	decode(t, w.Body.Bytes(), &rec)
	return rec
}

// spanNames extracts the ordered span-name sequence.
func spanNames(rec obs.TraceRecord) []string {
	names := make([]string, len(rec.Spans))
	for i, sp := range rec.Spans {
		names[i] = sp.Name
	}
	return names
}

// subsequence reports whether want appears in got in order (possibly
// with other spans interleaved).
func subsequence(got, want []string) bool {
	i := 0
	for _, g := range got {
		if i < len(want) && g == want[i] {
			i++
		}
	}
	return i == len(want)
}

// TestTraceEndToEnd is the acceptance walk: a cold analysis request
// returns an X-Trace header whose /debug/trace/{id} record shows the
// ordered ladder spans; a warm repeat shows the cache hit.
func TestTraceEndToEnd(t *testing.T) {
	s := newObsServer(t, Options{})

	cold := do(t, s, http.MethodGet, "/api/v1/types", "")
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status %d\n%s", cold.Code, cold.Body.Bytes())
	}
	id := cold.Header().Get("X-Trace")
	if id == "" {
		t.Fatal("cold response missing X-Trace header")
	}

	rec := traceRecord(t, s, id)
	names := spanNames(rec)
	want := []string{"cache-miss", "singleflight-lead", "compute", "store"}
	if len(names) < 4 || !subsequence(names, want) {
		t.Fatalf("cold spans = %v, want ordered subsequence %v", names, want)
	}
	for _, sp := range rec.Spans {
		if sp.Name == "compute" && sp.Analysis != "types" {
			t.Fatalf("compute span analysis = %q, want types", sp.Analysis)
		}
	}

	// Warm repeat: the cache answers; the flight layer is never touched.
	warm := do(t, s, http.MethodGet, "/api/v1/types", "")
	rec2 := traceRecord(t, s, warm.Header().Get("X-Trace"))
	names2 := spanNames(rec2)
	if !subsequence(names2, []string{"cache-hit"}) || subsequence(names2, []string{"compute"}) {
		t.Fatalf("warm spans = %v, want cache-hit and no compute", names2)
	}

	// The list endpoint knows both traces, most recent first.
	listResp := do(t, s, http.MethodGet, "/debug/trace", "")
	var list struct {
		Tracer obs.TracerStats `json:"tracer"`
		Traces []string        `json:"traces"`
	}
	decode(t, listResp.Body.Bytes(), &list)
	if list.Tracer.Finished < 2 || len(list.Traces) < 2 {
		t.Fatalf("trace list = %+v, want >= 2 finished", list)
	}
	if list.Traces[0] != warm.Header().Get("X-Trace") {
		t.Fatalf("trace list not most-recent-first: %v", list.Traces[:2])
	}

	// Unknown IDs get the API's 404 envelope, not a plain-text error.
	miss := do(t, s, http.MethodGet, "/debug/trace/ffffffff", "")
	var ee errEnv
	decode(t, miss.Body.Bytes(), &ee)
	if miss.Code != http.StatusNotFound || ee.Error.Code != "not_found" {
		t.Fatalf("missing trace: status %d code %q", miss.Code, ee.Error.Code)
	}
	if s.Tracer().Stats().Started < 2 {
		t.Fatal("tracer accessor disagrees with requests served")
	}
}

// TestPromExposition exercises GET /metrics: valid Prometheus text
// exposition carrying the HTTP histograms and the per-analysis
// per-stage histograms aggregated from traces.
func TestPromExposition(t *testing.T) {
	s := newObsServer(t, Options{})

	// One cold and one warm analysis request so every layer has data.
	do(t, s, http.MethodGet, "/api/v1/types", "")
	do(t, s, http.MethodGet, "/api/v1/types", "")

	w := do(t, s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ExpositionContentType)
	}
	if err := obs.ValidateExposition(w.Body.String()); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, w.Body.Bytes())
	}

	text := w.Body.String()
	// Golden shape: every family the exporter promises, with its type.
	for _, line := range []string{
		"# TYPE csm_uptime_seconds gauge",
		"# TYPE csm_http_in_flight gauge",
		"# TYPE csm_http_requests_total counter",
		"# TYPE csm_http_request_duration_seconds histogram",
		"# TYPE csm_cache_hits_total counter",
		"# TYPE csm_cache_misses_total counter",
		"# TYPE csm_cache_shared_flights_total counter",
		"# TYPE csm_cache_evictions_total counter",
		"# TYPE csm_cache_size gauge",
		"# TYPE csm_shed_max_in_flight gauge",
		"# TYPE csm_shed_admitted_total counter",
		"# TYPE csm_breaker_state gauge",
		"# TYPE csm_analysis_computes_total counter",
		"# TYPE csm_analysis_cache_hits_total counter",
		"# TYPE csm_analysis_cache_misses_total counter",
		"# TYPE csm_batch_calls_total counter",
		"# TYPE csm_datasets gauge",
		"# TYPE csm_dataset_revision gauge",
		"# TYPE csm_dataset_courses gauge",
		"# TYPE csm_dataset_materials gauge",
		"# TYPE csm_stage_duration_seconds histogram",
		"# TYPE csm_traces_total counter",
		"# TYPE csm_trace_ring_size gauge",
		"# TYPE csm_log_dropped_total counter",
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition missing %q", line)
		}
	}

	// The per-stage histogram series carry (analysis, dataset, stage)
	// labels and cumulative buckets ending in +Inf; un-scoped requests
	// land on the default dataset.
	for _, series := range []string{
		`csm_stage_duration_seconds_bucket{analysis="types",dataset="default",stage="compute",le="+Inf"}`,
		`csm_stage_duration_seconds_bucket{analysis="types",dataset="default",stage="cache-hit",le="+Inf"}`,
		`csm_stage_duration_seconds_sum{analysis="types",dataset="default",stage="compute"}`,
		`csm_stage_duration_seconds_count{analysis="types",dataset="default",stage="compute"}`,
		`csm_http_requests_total{route="GET /api/v1/types",status="200"} 2`,
		`csm_breaker_state{analysis="types",dataset="default"} 0`,
		`csm_analysis_computes_total{analysis="types",dataset="default"} 1`,
		`csm_analysis_cache_hits_total{analysis="types",dataset="default"} 1`,
		`csm_analysis_cache_misses_total{analysis="types",dataset="default"} 1`,
		`csm_datasets 1`,
		`csm_dataset_revision{dataset="default"} 1`,
		`csm_cache_hits_total 1`,
		`csm_cache_misses_total 1`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing series %q", series)
		}
	}
}

// TestWideEvents checks the one-line-per-request structured access log:
// shape, trace correlation, and the serving outcome field.
func TestWideEvents(t *testing.T) {
	var buf bytes.Buffer
	logger := obs.NewLogger(&buf)
	s := newObsServer(t, Options{Events: logger})

	cold := do(t, s, http.MethodGet, "/api/v1/types", "")
	do(t, s, http.MethodGet, "/api/v1/types", "")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wide events = %d lines, want 2\n%s", len(lines), buf.String())
	}
	var coldEv, warmEv map[string]interface{}
	decode(t, []byte(lines[0]), &coldEv)
	decode(t, []byte(lines[1]), &warmEv)

	if coldEv["event"] != "request" || coldEv["route"] != "GET /api/v1/types" ||
		coldEv["method"] != "GET" || coldEv["path"] != "/api/v1/types" {
		t.Fatalf("cold event shape: %v", coldEv)
	}
	if coldEv["trace"] != cold.Header().Get("X-Trace") {
		t.Fatalf("event trace %v != header %q", coldEv["trace"], cold.Header().Get("X-Trace"))
	}
	if coldEv["status"] != float64(200) || coldEv["cache"] != "miss" || warmEv["cache"] != "hit" {
		t.Fatalf("outcomes: cold=%v warm=%v", coldEv["cache"], warmEv["cache"])
	}
	spans, ok := coldEv["spans"].([]interface{})
	if !ok || len(spans) < 4 {
		t.Fatalf("cold event spans = %v, want >= 4", coldEv["spans"])
	}
	if _, ok := coldEv["ts"].(string); !ok {
		t.Fatalf("event missing ts: %v", coldEv)
	}
	if logger.Drops() != 0 {
		t.Fatalf("logger drops = %d", logger.Drops())
	}
}

// TestWideEventsReplacePlainAccessLog: with Events set, the plain
// serving.AccessLog must not also run (one line per request, not two).
func TestWideEventsReplacePlainAccessLog(t *testing.T) {
	var wide, plain bytes.Buffer
	s := newObsServer(t, Options{
		Events: obs.NewLogger(&wide),
		Logger: log.New(&plain, "", 0),
	})
	do(t, s, http.MethodGet, "/api/v1/types", "")
	if strings.TrimSpace(wide.String()) == "" {
		t.Fatal("no wide event emitted")
	}
	if got := plain.String(); strings.Contains(got, "/api/v1/types") {
		t.Fatalf("plain access log ran alongside wide events: %q", got)
	}
}

// TestBatchTracedEndToEnd: batch requests carry traces too, with one
// batch-item span per item.
func TestBatchTracedEndToEnd(t *testing.T) {
	s := newObsServer(t, Options{})
	w := do(t, s, http.MethodPost, "/api/v1/batch",
		`{"items":[{"analysis":"types"},{"analysis":"agreement"}]}`)
	id := w.Header().Get("X-Trace")
	if w.Code != http.StatusOK || id == "" {
		t.Fatalf("batch status %d, X-Trace %q\n%s", w.Code, id, w.Body.Bytes())
	}
	rec := traceRecord(t, s, id)
	var items int
	for _, sp := range rec.Spans {
		if sp.Name == "batch-item" {
			items++
		}
	}
	if items != 2 {
		t.Fatalf("batch-item spans = %d, want 2\nspans: %v", items, spanNames(rec))
	}
}

// TestWideEventGolden pins the exact bytes of request wide events, so a
// change of key order, omitted keys, number format or string escaping
// fails here even when every line still parses. The clocks are fake:
// the tracer's advances only where the handler says, the logger's is
// fixed. The query carries the characters encoding/json escapes (&, <,
// ", \ and U+2028).
func TestWideEventGolden(t *testing.T) {
	const query = "group=cs1&q=<b>\"x\"\\y\u2028z"
	clk := newFakeClock()
	tracer := obs.NewTracer(4, clk.Now)
	var buf bytes.Buffer
	logger := obs.NewLogger(&buf)
	logger.SetClock(func() time.Time { return time.Date(2026, 10, 17, 12, 0, 0, 123456789, time.UTC) })
	s := newObsServer(t, Options{Tracer: tracer, Events: logger})

	serve := func(route, path, rawQuery string, h http.HandlerFunc) {
		t.Helper()
		r := httptest.NewRequest(http.MethodGet, path, nil)
		r.URL.RawQuery = rawQuery
		s.traced(route, h).ServeHTTP(httptest.NewRecorder(), r)
	}
	step := func(ctx context.Context, name string, d time.Duration) {
		sp := obs.StartSpan(ctx, name)
		clk.Advance(d)
		sp.End()
	}

	// Sampled, with every conditional key present: a dataset, a query,
	// and a miss that an open breaker rejects.
	serve("GET /api/v1/datasets/{id}/agreement", "/api/v1/datasets/pdc-2024/agreement", query,
		func(w http.ResponseWriter, r *http.Request) {
			an := obs.WithAnalysis(r.Context(), "agreement")
			ds := obs.WithDataset(an, "pdc-2024")
			step(r.Context(), "parse", 125*time.Microsecond)
			step(ds, "cache-miss", 2*time.Microsecond)
			obs.AddSpan(an, "breaker-open", time.Time{})
			clk.Advance(1583 * time.Microsecond)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":1}`))
		})
	// Sampled, with every conditional key absent and no spans.
	serve("GET /healthz", "/healthz", "", func(w http.ResponseWriter, r *http.Request) {
		clk.Advance(time.Millisecond)
		w.WriteHeader(http.StatusNoContent)
	})
	// Sampled out: the access line without trace, spans or timings.
	tracer.SetSampleRate(0)
	serve("GET /api/v1/search", "/api/v1/search", query, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte("bad"))
	})

	want := `{"breaker":"open","bytes":11,"cache":"miss","dataset":"pdc-2024","dur_ms":1.71,"event":"request","method":"GET","path":"/api/v1/datasets/pdc-2024/agreement","query":"group=cs1\u0026q=\u003cb\u003e\"x\"\\y\u2028z","route":"GET /api/v1/datasets/{id}/agreement","spans":[{"ms":0.125,"name":"parse"},{"analysis":"agreement","dataset":"pdc-2024","ms":0.002,"name":"cache-miss"},{"analysis":"agreement","ms":0,"name":"breaker-open"}],"status":503,"trace":"00000001","ts":"2026-10-17T12:00:00.123456789Z"}
{"bytes":0,"dur_ms":1,"event":"request","method":"GET","path":"/healthz","route":"GET /healthz","spans":[],"status":204,"trace":"00000002","ts":"2026-10-17T12:00:00.123456789Z"}
{"bytes":3,"event":"request","method":"GET","path":"/api/v1/search","query":"group=cs1\u0026q=\u003cb\u003e\"x\"\\y\u2028z","route":"GET /api/v1/search","sampled":false,"status":400,"ts":"2026-10-17T12:00:00.123456789Z"}
`
	if got := buf.String(); got != want {
		t.Fatalf("wide events differ\ngot:\n%s\nwant:\n%s", got, want)
	}
	if logger.Drops() != 0 {
		t.Fatalf("logger drops = %d", logger.Drops())
	}
}

// TestWideEventUnsampledBareGolden pins a sampled-out line without a
// query, the optional key TestWideEventGolden always sets on that line,
// from a handler that writes nothing.
func TestWideEventUnsampledBareGolden(t *testing.T) {
	tracer := obs.NewTracer(4, newFakeClock().Now)
	tracer.SetSampleRate(0)
	var buf bytes.Buffer
	logger := obs.NewLogger(&buf)
	logger.SetClock(func() time.Time { return time.Date(2026, 10, 17, 12, 0, 0, 0, time.UTC) })
	s := newObsServer(t, Options{Tracer: tracer, Events: logger})
	s.traced("GET /healthz", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})).
		ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
	want := `{"bytes":0,"event":"request","method":"GET","path":"/healthz","route":"GET /healthz","sampled":false,"status":200,"ts":"2026-10-17T12:00:00Z"}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}
