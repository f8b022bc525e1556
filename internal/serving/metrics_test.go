package serving

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func TestMetricsObserve(t *testing.T) {
	m := NewMetrics()
	m.Observe("GET /api/v1/types", 200, 3*time.Millisecond)
	m.Observe("GET /api/v1/types", 200, 7*time.Millisecond)
	m.Observe("GET /api/v1/types", 400, 40*time.Millisecond)
	m.Observe("GET /healthz", 200, 500*time.Microsecond)

	snap := m.Snapshot()
	rs, ok := snap.Routes["GET /api/v1/types"]
	if !ok {
		t.Fatalf("route missing from snapshot: %+v", snap.Routes)
	}
	if rs.Count != 3 || rs.ByStatus["200"] != 2 || rs.ByStatus["400"] != 1 {
		t.Fatalf("route stats = %+v", rs)
	}
	if rs.Buckets["<=5"] != 1 || rs.Buckets["<=10"] != 1 || rs.Buckets["<=50"] != 1 {
		t.Fatalf("buckets = %+v", rs.Buckets)
	}
	if rs.MaxMS != 40 { // lint:exact — an injected 40ms observation converts to exactly 40.0
		t.Fatalf("max = %v", rs.MaxMS)
	}
	if rs.MeanMS < 16 || rs.MeanMS > 17 {
		t.Fatalf("mean = %v", rs.MeanMS)
	}
	// Quantiles are monotone and inside the observed range.
	if rs.P50MS <= 0 || rs.P50MS > rs.P90MS || rs.P90MS > rs.P99MS || rs.P99MS > rs.MaxMS {
		t.Fatalf("quantiles p50=%v p90=%v p99=%v max=%v", rs.P50MS, rs.P90MS, rs.P99MS, rs.MaxMS)
	}
	if hz := snap.Routes["GET /healthz"]; hz.Buckets["<=1"] != 1 {
		t.Fatalf("healthz buckets = %+v", hz.Buckets)
	}
}

func TestMetricsInFlight(t *testing.T) {
	m := NewMetrics()
	m.IncInFlight()
	m.IncInFlight()
	m.DecInFlight()
	if got := m.Snapshot().InFlight; got != 1 {
		t.Fatalf("in_flight = %d, want 1", got)
	}
}

func TestMetricsHandlerJSON(t *testing.T) {
	m := NewMetrics()
	c := NewCache(8)
	c.do("k", func() (interface{}, error) { return 1, nil })
	c.do("k", func() (interface{}, error) { return 1, nil })
	m.ObserveCache(c)
	m.Observe("GET /api/v1/courses", 200, 2*time.Millisecond)

	rr := httptest.NewRecorder()
	m.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.Bytes())
	}
	if snap.Cache == nil || snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v", snap.Cache)
	}
	if snap.Routes["GET /api/v1/courses"].Count != 1 {
		t.Fatalf("routes = %+v", snap.Routes)
	}
	if snap.UptimeSeconds < 0 {
		t.Fatalf("uptime = %v", snap.UptimeSeconds)
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	m := NewMetrics()
	m.Observe("r", 200, 8*time.Millisecond)
	rs := m.Snapshot().Routes["r"]
	if rs.P99MS <= 0 || rs.P99MS > 10 {
		t.Fatalf("p99 = %v, want in (0,10]", rs.P99MS)
	}
}
