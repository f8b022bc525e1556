package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
)

// fakeCompute swaps the registered analysis's Compute for fn while
// keeping its Name/Parse (and so its routes, cache keys, and breaker),
// exercising the identical dispatch path real analyses take. This is
// the registry-level test seam: no server internals, just Replace.
type fakeCompute struct {
	engine.Analysis
	fn func(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error)
}

func (f fakeCompute) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	return f.fn(ctx, repo, p)
}

// replaceCompute installs fn as name's Compute and returns the original
// analysis (for delegating fakes).
func replaceCompute(t *testing.T, s *Server, name string,
	fn func(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error)) engine.Analysis {
	t.Helper()
	reg := s.Engine().Registry()
	orig, ok := reg.Get(name)
	if !ok {
		t.Fatalf("analysis %q not registered", name)
	}
	reg.Replace(fakeCompute{Analysis: orig, fn: fn})
	return orig
}

// countCompute wraps name's registered Compute with a call counter.
func countCompute(t *testing.T, s *Server, name string, calls *int32) {
	t.Helper()
	var orig engine.Analysis
	orig = replaceCompute(t, s, name, func(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
		atomic.AddInt32(calls, 1)
		return orig.Compute(ctx, repo, p)
	})
}

// TestSingleflightCollapsesConcurrentTypes fires N parallel identical
// /api/v1/types requests at a fresh server and proves exactly one
// underlying Compute call happened: concurrent arrivals share the
// in-flight computation, later ones hit the completed cache entry.
func TestSingleflightCollapsesConcurrentTypes(t *testing.T) {
	s, ts := newTestServer(t)
	var calls int32
	countCompute(t, s, "types", &calls)

	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/api/v1/types?group=cs1&k=3")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var e env
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != 200 {
				errs <- &httpStatusError{resp.StatusCode}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("types Compute ran %d times for %d concurrent identical requests, want 1", got, n)
	}
	st := s.Cache().Stats()
	if st.Hits+st.Shared != n-1 {
		t.Fatalf("cache stats = %+v, want hits+shared = %d", st, n-1)
	}
}

type httpStatusError struct{ status int }

func (e *httpStatusError) Error() string { return http.StatusText(e.status) }

// TestCacheMetaAndMetrics walks the miss→hit transition and checks that
// /metrics reports the route's requests, its latency count, and cache
// accounting for it.
func TestCacheMetaAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	e := getEnvelope(t, ts, "/api/v1/types?group=cs1&k=3", 200)
	if e.Meta.Cache != "miss" || e.Meta.Key != "types|cs1|3" {
		t.Fatalf("first request meta = %+v", e.Meta)
	}
	e = getEnvelope(t, ts, "/api/v1/types?group=cs1&k=3", 200)
	if e.Meta.Cache != "hit" {
		t.Fatalf("second request meta = %+v", e.Meta)
	}

	for _, series := range []string{
		`csm_http_requests_total{route="GET /api/v1/types",status="200"}`,
		`csm_http_request_duration_seconds_count{route="GET /api/v1/types"}`,
	} {
		if v := metricValue(t, ts, series); v != "2" {
			t.Fatalf("%s = %s, want 2", series, v)
		}
	}
	// Background warmup also misses, so only a floor holds for the
	// cache totals.
	for _, series := range []string{"csm_cache_hits_total", "csm_cache_misses_total"} {
		if v, err := strconv.Atoi(metricValue(t, ts, series)); err != nil || v < 1 {
			t.Fatalf("%s = %d (%v), want >= 1", series, v, err)
		}
	}
}

// TestDefaultGroupAndKSharing: group= and group=all normalize to the
// same cache key, so the second spelling is a hit.
func TestDefaultGroupAndKSharing(t *testing.T) {
	_, ts := newTestServer(t)
	e := getEnvelope(t, ts, "/api/v1/cluster?group=all&k=4", 200)
	if e.Meta.Cache != "miss" {
		t.Fatalf("first = %+v", e.Meta)
	}
	e = getEnvelope(t, ts, "/api/v1/cluster", 200)
	if e.Meta.Cache != "hit" || e.Meta.Key != "cluster|all|4" {
		t.Fatalf("normalized spelling did not share cache: %+v", e.Meta)
	}
}

// TestCacheDisabledServer: a negative cache size retains nothing but
// the API still works.
func TestCacheDisabledServer(t *testing.T) {
	s, err := NewWithOptions(Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for i := 0; i < 2; i++ {
		e := getEnvelope(t, ts, "/api/v1/agreement?group=cs1&threshold=2", 200)
		if e.Meta.Cache != "miss" {
			t.Fatalf("request %d cache = %q, want miss", i, e.Meta.Cache)
		}
	}
	if st := s.Cache().Stats(); st.Size != 0 {
		t.Fatalf("disabled cache retained %d entries", st.Size)
	}
}
