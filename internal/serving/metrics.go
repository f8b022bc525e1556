package serving

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csmaterials/internal/obs"
)

// latencyBoundsSeconds are the request latency histogram upper bounds;
// the final implicit bucket is +Inf.
var latencyBoundsSeconds = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// routeStats accumulates one route's observations.
type routeStats struct {
	byStatus map[int]uint64
	latency  *obs.Hist
}

// Metrics records per-route request counts by status, per-route
// latency histograms and an in-flight gauge: the HTTP layer of
// GET /metrics.
type Metrics struct {
	start    time.Time
	inFlight int64

	mu     sync.Mutex
	routes map[string]*routeStats
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), routes: make(map[string]*routeStats)}
}

// IncInFlight / DecInFlight maintain the in-flight request gauge.
func (m *Metrics) IncInFlight() { atomic.AddInt64(&m.inFlight, 1) }
func (m *Metrics) DecInFlight() { atomic.AddInt64(&m.inFlight, -1) }

// Observe records one completed request for the route.
func (m *Metrics) Observe(route string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[route]
	if !ok {
		rs = &routeStats{byStatus: make(map[int]uint64), latency: obs.NewHist(latencyBoundsSeconds)}
		m.routes[route] = rs
	}
	rs.byStatus[status]++
	rs.latency.Observe(d.Seconds())
}

// StatusCount is one (status code, count) pair of a route's export.
type StatusCount struct {
	Status int
	Count  uint64
}

// RouteExport is one route's accounting: its requests by status code
// and its latency histogram in seconds.
type RouteExport struct {
	Route    string
	ByStatus []StatusCount // sorted by status code
	Latency  obs.Hist
}

// Export is the HTTP layer of GET /metrics.
type Export struct {
	UptimeSeconds float64
	InFlight      int64
	Routes        []RouteExport // sorted by route
}

// Export snapshots the registry in deterministic form: routes and
// status codes sorted, histograms copied.
func (m *Metrics) Export() Export {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Export{
		UptimeSeconds: time.Since(m.start).Seconds(),
		InFlight:      atomic.LoadInt64(&m.inFlight),
		Routes:        make([]RouteExport, 0, len(m.routes)),
	}
	for route, rs := range m.routes {
		re := RouteExport{
			Route:    route,
			ByStatus: make([]StatusCount, 0, len(rs.byStatus)),
			Latency:  rs.latency.Clone(),
		}
		for status, n := range rs.byStatus {
			re.ByStatus = append(re.ByStatus, StatusCount{Status: status, Count: n})
		}
		sort.Slice(re.ByStatus, func(i, j int) bool { return re.ByStatus[i].Status < re.ByStatus[j].Status })
		out.Routes = append(out.Routes, re)
	}
	sort.Slice(out.Routes, func(i, j int) bool { return out.Routes[i].Route < out.Routes[j].Route })
	return out
}
