package serving

import (
	"testing"
	"time"
)

// routeExport returns the named route's export, failing if it is absent.
func routeExport(t *testing.T, ex Export, route string) RouteExport {
	t.Helper()
	for _, re := range ex.Routes {
		if re.Route == route {
			return re
		}
	}
	t.Fatalf("route %q missing from export: %+v", route, ex.Routes)
	return RouteExport{}
}

// statusCount returns how many of the route's requests answered status.
func statusCount(re RouteExport, status int) uint64 {
	for _, sc := range re.ByStatus {
		if sc.Status == status {
			return sc.Count
		}
	}
	return 0
}

func TestMetricsObserve(t *testing.T) {
	m := NewMetrics()
	m.Observe("GET /api/v1/types", 200, 3*time.Millisecond)
	m.Observe("GET /api/v1/types", 200, 7*time.Millisecond)
	m.Observe("GET /api/v1/types", 400, 40*time.Millisecond)
	m.Observe("GET /healthz", 200, 500*time.Microsecond)

	ex := m.Export()
	rs := routeExport(t, ex, "GET /api/v1/types")
	if rs.Latency.Count != 3 || statusCount(rs, 200) != 2 || statusCount(rs, 400) != 1 {
		t.Fatalf("route stats = %+v", rs)
	}
	// Bounds 0.001, 0.005, 0.01, 0.025, 0.05, ...: 3ms, 7ms and 40ms
	// land in the le=0.005, le=0.01 and le=0.05 buckets.
	if c := rs.Latency.Counts; c[1] != 1 || c[2] != 1 || c[4] != 1 {
		t.Fatalf("buckets = %v", c)
	}
	if rs.Latency.Sum < 0.05-1e-12 || rs.Latency.Sum > 0.05+1e-12 {
		t.Fatalf("sum = %v s, want 0.05", rs.Latency.Sum)
	}
	if hz := routeExport(t, ex, "GET /healthz"); hz.Latency.Counts[0] != 1 {
		t.Fatalf("healthz buckets = %v", hz.Latency.Counts)
	}
}

func TestMetricsInFlight(t *testing.T) {
	m := NewMetrics()
	m.IncInFlight()
	m.IncInFlight()
	m.DecInFlight()
	if got := m.Export().InFlight; got != 1 {
		t.Fatalf("in_flight = %d, want 1", got)
	}
}
