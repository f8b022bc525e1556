// Package resilience implements the degradation ladder the API walks
// when the system is unhealthy: shed load first (reject excess work
// fast with 429), then break circuits (stop calling a compute path
// that keeps failing). An answer the cache already holds is a hit and
// never reaches either rung.
//
// The package is deliberately stdlib-only and HTTP-agnostic at its
// core: TenantLimiter and Breaker expose Acquire/Release and
// Allow/Record primitives; internal/serving and internal/server wire
// them into the middleware stack and response envelopes, and
// internal/server exposes their Stats snapshots as the csm_shed_*,
// csm_tenant_* and csm_breaker_* families of GET /metrics. The
// faultinject subpackage provides the deterministic chaos harness the
// tests use to prove each rung of the ladder engages.
package resilience
