package serving

import (
	"container/list"
	"context"
	"sort"
	"sync"

	"csmaterials/internal/obs"
)

// Cache is a bounded LRU result cache with singleflight deduplication:
// concurrent DoCtxFn calls for the same key share one computation, and
// completed results are retained (most recently used first) up to the
// configured capacity. Errors are never cached. Every lookup that finds
// its key is a hit: a key names the input of a deterministic
// computation, so a held answer is exactly what a recompute would
// return.
//
// The cache is tenant-partitionable: a scope function (SetScopeFunc)
// maps every key to a scope — in the multi-dataset engine, the dataset
// ID — and each scope owns its own LRU list, counters, and capacity
// budget. Eviction is scoped: a tenant filling its budget evicts only
// its own entries, never another tenant's. Budgets default to a fair
// share of the global capacity across the scopes declared with
// Partition and can be overridden per scope. Without a scope function
// every key lands in the single "" scope with the full capacity as its
// budget, which is exactly the pre-partitioned behaviour.
//
// A capacity <= 0 disables retention — every lookup misses — but
// singleflight deduplication still collapses concurrent callers.
type Cache struct {
	capacity int
	group    Group

	mu       sync.Mutex
	scopeFn  func(key string) string // nil → everything in scope ""
	scopes   map[string]*scopeStore
	declared []string       // scopes sharing the capacity (sorted)
	budgets  map[string]int // per-scope overrides

	shared uint64
}

// scopeStore is one scope's partition: its own LRU and accounting, so
// tenants cannot observe (or disturb) each other through a shared list
// or counters.
type scopeStore struct {
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

func newScopeStore() *scopeStore {
	return &scopeStore{ll: list.New(), items: make(map[string]*list.Element)}
}

type cacheEntry struct {
	key string
	val interface{}
}

// NewCache returns a cache holding at most capacity entries, all in one
// unpartitioned scope until SetScopeFunc/Partition carve it up.
func NewCache(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		scopes:   map[string]*scopeStore{},
		budgets:  map[string]int{},
	}
}

// SetScopeFunc installs the key→scope mapping used to partition the
// cache. Call it before the cache holds entries: existing entries keep
// the scope they were stored under.
func (c *Cache) SetScopeFunc(f func(key string) string) {
	c.mu.Lock()
	c.scopeFn = f
	c.mu.Unlock()
}

// Partition declares the scopes that share the global capacity and the
// per-scope budget overrides (entries; scopes absent from overrides get
// a fair share of what the overrides leave). It is called again
// whenever the tenant set changes; shrunken budgets are enforced
// immediately, evicting over-budget entries scope by scope.
func (c *Cache) Partition(scopes []string, overrides map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.declared = append([]string(nil), scopes...)
	sort.Strings(c.declared)
	c.budgets = make(map[string]int, len(overrides))
	for s, b := range overrides {
		if b > 0 {
			c.budgets[s] = b
		}
	}
	for scope, st := range c.scopes {
		c.enforceLocked(scope, st)
	}
}

// scopeLocked resolves key's scope and returns its store, creating the
// partition on first touch; callers hold c.mu.
func (c *Cache) scopeLocked(key string) (string, *scopeStore) {
	scope := ""
	if c.scopeFn != nil {
		scope = c.scopeFn(key)
	}
	st, ok := c.scopes[scope]
	if !ok {
		st = newScopeStore()
		c.scopes[scope] = st
	}
	return scope, st
}

// budgetLocked is scope's entry budget: its override when one is
// set, otherwise an equal share of the capacity the overrides leave
// free, split across the declared scopes without overrides (never below
// one entry, so a tenant can always retain something). With no declared
// scopes — the unpartitioned, single-tenant case — the budget is the
// whole capacity. Callers hold c.mu.
func (c *Cache) budgetLocked(scope string) int {
	if b, ok := c.budgets[scope]; ok {
		return b
	}
	if len(c.declared) == 0 {
		return c.capacity
	}
	reserved, unoverridden := 0, 0
	for _, s := range c.declared {
		if b, ok := c.budgets[s]; ok {
			reserved += b
		} else {
			unoverridden++
		}
	}
	if unoverridden == 0 {
		unoverridden = 1 // undeclared scope asking: act like one claimant
	}
	share := (c.capacity - reserved) / unoverridden
	if share < 1 {
		share = 1
	}
	return share
}

// enforceLocked evicts scope's least-recently-used entries until it is
// within budget; callers hold c.mu.
func (c *Cache) enforceLocked(scope string, st *scopeStore) {
	budget := c.budgetLocked(scope)
	for st.ll.Len() > budget {
		oldest := st.ll.Back()
		st.ll.Remove(oldest)
		delete(st.items, oldest.Value.(*cacheEntry).key)
		st.evictions++
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key string) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, st := c.scopeLocked(key)
	if el, ok := st.items[key]; ok {
		st.ll.MoveToFront(el)
		st.hits++
		return el.Value.(*cacheEntry).val, true
	}
	st.misses++
	return nil, false
}

// put stores key→val in its scope's LRU, evicting least-recently-used
// entries of THAT SCOPE when over its budget.
func (c *Cache) put(key string, val interface{}) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	scope, st := c.scopeLocked(key)
	if el, ok := st.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		st.ll.MoveToFront(el)
		c.enforceLocked(scope, st)
		return
	}
	st.items[key] = st.ll.PushFront(&cacheEntry{key: key, val: val})
	c.enforceLocked(scope, st)
}

// DoCtxFn returns the cached value for key or computes it,
// deduplicating concurrent computations for the same key through the
// singleflight group. The boolean reports whether the value was served
// without running compute in this call (a cache hit or a shared
// flight). A flight looks the key up again before it computes: another
// flight may have stored the value and ended between this caller's
// miss and its joining the group, and that value is served, as a call
// that did not compute.
//
// The compute function receives the FLIGHT context, not any one
// caller's: while at least one caller is still waiting the flight stays
// live, so a disconnecting client can neither poison nor cancel the
// entry for everyone else (the cancelled caller itself receives
// ctx.Err()). Only when the last waiter departs is the flight context
// cancelled, letting a context-aware compute stop mid-iteration instead
// of converging for nobody. Successful results are cached either way;
// errors never are.
// The ladder is traced when ctx carries an obs.Trace: the lookup is
// recorded as a cache-hit/cache-miss span, the flight that actually
// computes records singleflight-lead and store spans into ITS
// initiator's trace (joiners' compute closures never run), and a
// caller that shared another flight records a singleflight-join span
// covering its wait. Untraced contexts skip all of it.
func (c *Cache) DoCtxFn(ctx context.Context, key string, compute func(context.Context) (interface{}, error)) (interface{}, bool, error) {
	lookup := obs.StartSpan(ctx, "cache-lookup")
	if v, ok := c.Get(key); ok {
		lookup.EndAs("cache-hit")
		return v, true, nil
	}
	lookup.EndAs("cache-miss")
	sfStart := obs.Now(ctx)
	v, err, sharedFlight := c.group.DoCtxFn(ctx, key, func(fctx context.Context) (interface{}, error) {
		if v, ok := c.stored(key); ok {
			return storedValue{v}, nil
		}
		// This closure runs only for the caller that initiated the
		// flight, so recording into ctx's trace is recording the lead.
		lead := obs.StartSpan(ctx, "singleflight-lead")
		v, err := compute(fctx)
		if err == nil {
			st := obs.StartSpan(ctx, "store")
			c.put(key, v)
			st.End()
		}
		lead.End()
		return v, err
	})
	if sharedFlight {
		obs.AddSpan(ctx, "singleflight-join", sfStart)
		c.mu.Lock()
		c.shared++
		c.mu.Unlock()
	}
	if sv, ok := v.(storedValue); ok {
		return sv.v, true, err
	}
	return v, sharedFlight, err
}

// storedValue is a flight's result that the flight found in the cache
// instead of computing it.
type storedValue struct{ v interface{} }

// stored returns key's value, if any, without counting a lookup:
// the caller counted its miss already.
func (c *Cache) stored(key string) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, st := c.scopeLocked(key)
	if el, ok := st.items[key]; ok {
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// Invalidate removes every entry (across all scopes) whose key
// satisfies match, returning the number of entries dropped. Scope
// counters are untouched — invalidation is a corpus event, not a tenant
// teardown (that is DropScope). In-flight singleflight computations are
// unaffected — they complete for their waiters and store under their
// (now unmatched or re-matched) keys.
func (c *Cache) Invalidate(match func(key string) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, st := range c.scopes {
		for el := st.ll.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*cacheEntry); match(e.key) {
				st.ll.Remove(el)
				delete(st.items, e.key)
				n++
			}
			el = next
		}
	}
	return n
}

// DropScope tears down one scope's whole partition — entries AND
// counters — returning the number of entries dropped. This is the
// tenant-deletion path: after it, snapshots and /metrics no longer
// report the scope at all, rather than carrying a ghost tenant's stats
// forever.
func (c *Cache) DropScope(scope string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.scopes[scope]
	if !ok {
		return 0
	}
	delete(c.scopes, scope)
	return st.ll.Len()
}

// ScopeCacheStats is one scope's slice of the cache accounting.
type ScopeCacheStats struct {
	Budget    int    `json:"budget"`
	Size      int    `json:"size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// CacheStats is a point-in-time snapshot of the cache counters. The
// top-level fields aggregate across scopes; Scopes breaks the same
// accounting down per named partition (absent while the cache is
// unpartitioned, so the single-tenant snapshot keeps its old shape).
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Shared    uint64 `json:"shared_flights"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`

	Scopes map[string]ScopeCacheStats `json:"scopes,omitempty"`
}

// Stats snapshots the hit/miss/eviction accounting, aggregated
// and per scope.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := CacheStats{Capacity: c.capacity, Shared: c.shared}
	for scope, st := range c.scopes {
		out.Hits += st.hits
		out.Misses += st.misses
		out.Evictions += st.evictions
		out.Size += st.ll.Len()
		if scope == "" {
			continue // the unpartitioned scope is the aggregate itself
		}
		if out.Scopes == nil {
			out.Scopes = make(map[string]ScopeCacheStats)
		}
		out.Scopes[scope] = ScopeCacheStats{
			Budget:    c.budgetLocked(scope),
			Size:      st.ll.Len(),
			Hits:      st.hits,
			Misses:    st.misses,
			Evictions: st.evictions,
		}
	}
	return out
}

// ScopeBudget reports the current entry budget of scope (the
// override when set, the fair share otherwise).
func (c *Cache) ScopeBudget(scope string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budgetLocked(scope)
}
