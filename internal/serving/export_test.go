package serving

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestMetricsExport(t *testing.T) {
	m := NewMetrics()
	m.Observe("GET /api/v1/types", 200, 3*time.Millisecond)
	m.Observe("GET /api/v1/types", 200, 30*time.Millisecond)
	m.Observe("GET /api/v1/types", 400, time.Millisecond)
	m.Observe("GET /api/v1/courses", 200, 700*time.Millisecond)
	m.IncInFlight()

	ex := m.Export()
	if ex.InFlight != 1 {
		t.Fatalf("in-flight = %d, want 1", ex.InFlight)
	}
	if len(ex.Routes) != 2 || ex.Routes[0].Route != "GET /api/v1/courses" || ex.Routes[1].Route != "GET /api/v1/types" {
		t.Fatalf("routes not sorted: %+v", ex.Routes)
	}
	types := ex.Routes[1]
	if types.Latency.Count != 3 {
		t.Fatalf("count = %d, want 3", types.Latency.Count)
	}
	wantStatus := []StatusCount{{Status: 200, Count: 2}, {Status: 400, Count: 1}}
	if len(types.ByStatus) != 2 || types.ByStatus[0] != wantStatus[0] || types.ByStatus[1] != wantStatus[1] {
		t.Fatalf("by-status = %+v, want %+v", types.ByStatus, wantStatus)
	}
	bounds := types.Latency.Bounds
	if !sort.Float64sAreSorted(bounds) {
		t.Fatalf("bounds not sorted: %v", bounds)
	}
	if len(types.Latency.Counts) != len(bounds)+1 {
		t.Fatalf("bucket counts = %d, want %d", len(types.Latency.Counts), len(bounds)+1)
	}
	var total uint64
	for _, n := range types.Latency.Counts {
		total += n
	}
	if total != 3 {
		t.Fatalf("bucket total = %d, want 3", total)
	}
	if types.Latency.Sum < 0.034-1e-12 || types.Latency.Sum > 0.034+1e-12 {
		t.Fatalf("sum = %v s, want 0.034", types.Latency.Sum)
	}
	// Export must return copies: mutating them cannot corrupt the registry.
	types.Latency.Counts[0] = math.MaxUint64
	if m.Export().Routes[1].Latency.Counts[0] == math.MaxUint64 {
		t.Fatal("export aliases internal state")
	}
}
