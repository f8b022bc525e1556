// Package resilience implements the degradation ladder the API walks
// when the system is unhealthy: shed load first (reject excess work
// fast with 429), then break circuits (stop calling a compute path
// that keeps failing). An answer the cache already holds is a hit and
// never reaches either rung.
//
// The package is deliberately stdlib-only and HTTP-agnostic at its
// core: TenantLimiter and Breaker expose Acquire/Release and
// Allow/Record primitives; internal/serving and internal/server wire
// them into the middleware stack and response envelopes. The
// faultinject subpackage provides the deterministic chaos harness the
// tests use to prove each rung of the ladder engages.
package resilience

// Stats is the resilience section of the /debug/metrics snapshot:
// shedder counters (globals of the two-level TenantLimiter, kept in
// the legacy shape), the per-tenant admission breakdown, and the state
// and accounting of every named circuit breaker.
type Stats struct {
	Shedder  ShedderStats            `json:"shedder"`
	Tenants  map[string]TenantStats  `json:"tenants,omitempty"`
	Breakers map[string]BreakerStats `json:"breakers"`
}
