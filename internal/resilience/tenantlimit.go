package resilience

import (
	"sync"
	"time"
)

// DefaultRetryAfter is the Retry-After hint handed to shed clients
// when the TenantLimiter was built without an explicit one.
const DefaultRetryAfter = time.Second

// AdmitResult is a TenantLimiter's decision for one request.
type AdmitResult int

const (
	// Admitted: the request holds a slot and must Release exactly once.
	Admitted AdmitResult = iota
	// ShedCapacity: the GLOBAL in-flight cap is exhausted; the server as
	// a whole is overloaded (error code "capacity").
	ShedCapacity
	// ShedQuota: the server has headroom but THIS tenant is over its
	// fair-share quota (error code "tenant_quota"). One tenant flooding
	// cannot consume another tenant's admission slots.
	ShedQuota
)

// TenantLimiter is a two-level admission controller: a global hard cap
// on concurrent requests plus weighted fair per-tenant in-flight
// quotas beneath it. Tenant t's quota is
//
//	max(1, floor(globalMax * weight_t / Σ weights))
//
// over the declared tenants, so with a single tenant the quota equals
// the global cap and the limiter degenerates to a plain shedder. A
// tenant beyond its quota is rejected even when the server has
// headroom; a tenant within its quota can still be rejected when the
// global cap is exhausted. Undeclared tenants are treated as one extra
// weight-1 claimant rather than admitted freely.
//
// A max <= 0 disables both levels: Acquire always admits (gauges and
// counters still work, so metrics stay meaningful).
type TenantLimiter struct {
	mu         sync.Mutex
	max        int64
	retryAfter time.Duration

	sumWeights float64
	tenants    map[string]*tenantState

	inFlight     int64
	admitted     uint64
	shedCapacity uint64
	shedQuota    uint64
}

// tenantState is one tenant's admission accounting.
type tenantState struct {
	weight   float64 // 0 when undeclared
	declared bool

	inFlight  int64
	admitted  uint64
	shed      uint64 // both kinds, attributed to the tenant
	shedQuota uint64 // quota-level rejections only
}

// NewTenantLimiter returns a limiter admitting at most max concurrent
// requests globally, hinting Retry-After: retryAfter (DefaultRetryAfter
// when zero or negative) on rejection. Declare tenants with SetTenants.
func NewTenantLimiter(max int, retryAfter time.Duration) *TenantLimiter {
	if retryAfter <= 0 {
		retryAfter = DefaultRetryAfter
	}
	return &TenantLimiter{max: int64(max), retryAfter: retryAfter, tenants: map[string]*tenantState{}}
}

// SetTenants replaces the declared tenant set and their weights
// (weights <= 0 count as 1). Quotas are recomputed immediately;
// counters of tenants that remain are preserved, and tenants absent
// from the new set keep their history but fall back to undeclared
// admission. Call DropTenant to forget a tenant entirely.
func (l *TenantLimiter) SetTenants(weights map[string]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sumWeights = 0
	for _, ts := range l.tenants {
		ts.declared = false
		ts.weight = 0
	}
	for t, w := range weights {
		if w <= 0 {
			w = 1
		}
		ts := l.tenantLocked(t)
		ts.declared = true
		ts.weight = w
		l.sumWeights += w
	}
}

// DropTenant forgets a tenant's state and counters (tenant deletion:
// stats must stop reporting it). Any in-flight requests it still holds
// release harmlessly.
func (l *TenantLimiter) DropTenant(tenant string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ts, ok := l.tenants[tenant]; ok && ts.declared {
		l.sumWeights -= ts.weight
	}
	delete(l.tenants, tenant)
}

// tenantLocked returns tenant's state, creating it; callers hold l.mu.
func (l *TenantLimiter) tenantLocked(tenant string) *tenantState {
	ts, ok := l.tenants[tenant]
	if !ok {
		ts = &tenantState{}
		l.tenants[tenant] = ts
	}
	return ts
}

// quotaLocked computes tenant's in-flight quota; callers hold l.mu.
func (l *TenantLimiter) quotaLocked(ts *tenantState) int64 {
	if l.max <= 0 {
		return 0 // unlimited
	}
	w, sum := ts.weight, l.sumWeights
	if !ts.declared {
		w = 1
		sum += 1
	}
	if sum <= 0 {
		return l.max
	}
	q := int64(float64(l.max) * w / sum)
	if q < 1 {
		q = 1
	}
	if q > l.max {
		q = l.max
	}
	return q
}

// Quota reports tenant's current in-flight quota (0 = unlimited).
func (l *TenantLimiter) Quota(tenant string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quotaLocked(l.tenantLocked(tenant))
}

// Acquire reserves an in-flight slot for tenant. Every Admitted result
// must be matched by exactly one Release with the same tenant.
func (l *TenantLimiter) Acquire(tenant string) AdmitResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := l.tenantLocked(tenant)
	if l.max > 0 {
		if l.inFlight >= l.max {
			l.shedCapacity++
			ts.shed++
			return ShedCapacity
		}
		if ts.inFlight >= l.quotaLocked(ts) {
			l.shedQuota++
			ts.shed++
			ts.shedQuota++
			return ShedQuota
		}
	}
	l.inFlight++
	l.admitted++
	ts.inFlight++
	ts.admitted++
	return Admitted
}

// Release returns an admitted request's slot.
func (l *TenantLimiter) Release(tenant string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inFlight > 0 {
		l.inFlight--
	}
	if ts, ok := l.tenants[tenant]; ok && ts.inFlight > 0 {
		ts.inFlight--
	}
}

// InFlight is the current number of admitted requests.
func (l *TenantLimiter) InFlight() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inFlight
}

// TenantInFlight is the number of admitted requests tenant holds.
func (l *TenantLimiter) TenantInFlight(tenant string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ts, ok := l.tenants[tenant]; ok {
		return ts.inFlight
	}
	return 0
}

// RetryAfter is the backoff hint for a rejection: for quota-level
// rejections the tenant's own pressure sets the hint (the base hint
// scaled by how far over quota the tenant is, so a 4x flood is told to
// back off 4x longer), capacity-level rejections get the base hint.
func (l *TenantLimiter) RetryAfter(tenant string, res AdmitResult) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if res != ShedQuota {
		return l.retryAfter
	}
	ts := l.tenantLocked(tenant)
	q := l.quotaLocked(ts)
	if q <= 0 || ts.inFlight <= q {
		return l.retryAfter
	}
	return l.retryAfter * time.Duration((ts.inFlight+q-1)/q)
}

// TenantStats is one tenant's admission accounting snapshot.
type TenantStats struct {
	Quota     int64  `json:"quota"`
	InFlight  int64  `json:"in_flight"`
	Admitted  uint64 `json:"admitted_total"`
	Shed      uint64 `json:"shed_total"`
	ShedQuota uint64 `json:"shed_quota_total"`
}

// ShedderStats is the global level of a TenantLimiter: its in-flight
// bound and count and its admission totals.
type ShedderStats struct {
	MaxInFlight int64  `json:"max_in_flight"`
	InFlight    int64  `json:"in_flight"`
	Admitted    uint64 `json:"admitted_total"`
	Shed        uint64 `json:"shed_total"`
}

// Stats snapshots the global level (Shed counts BOTH levels,
// preserving the meaning of the pre-tenant rejection counter) plus the
// per-tenant breakdown.
func (l *TenantLimiter) Stats() (ShedderStats, map[string]TenantStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	global := ShedderStats{
		MaxInFlight: l.max,
		InFlight:    l.inFlight,
		Admitted:    l.admitted,
		Shed:        l.shedCapacity + l.shedQuota,
	}
	tenants := make(map[string]TenantStats, len(l.tenants))
	for t, ts := range l.tenants {
		tenants[t] = TenantStats{
			Quota:     l.quotaLocked(ts),
			InFlight:  ts.inFlight,
			Admitted:  ts.admitted,
			Shed:      ts.shed,
			ShedQuota: ts.shedQuota,
		}
	}
	return global, tenants
}
