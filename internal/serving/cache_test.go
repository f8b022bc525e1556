package serving

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csmaterials/internal/obs"
)

// do runs compute through c's lookup and singleflight with a
// background context; compute ignores the flight context, so the flight
// runs to completion once started.
func (c *Cache) do(key string, compute func() (interface{}, error)) (interface{}, bool, error) {
	return c.doCtx(context.Background(), key, compute)
}

// doCtx is do for a caller with its own context.
func (c *Cache) doCtx(ctx context.Context, key string, compute func() (interface{}, error)) (interface{}, bool, error) {
	return c.DoCtxFn(ctx, key, func(context.Context) (interface{}, error) { return compute() })
}

// waitFor polls cond until true or the test deadline budget runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(4)
	calls := 0
	compute := func() (interface{}, error) { calls++; return "v", nil }

	v, served, err := c.do("k", compute)
	if err != nil || served || v.(string) != "v" {
		t.Fatalf("first Do: v=%v served=%v err=%v", v, served, err)
	}
	v, served, err = c.do("k", compute)
	if err != nil || !served || v.(string) != "v" {
		t.Fatalf("second Do: v=%v served=%v err=%v", v, served, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 || st.Capacity != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	put := func(k string) {
		if _, _, err := c.do(k, func() (interface{}, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	if _, ok := c.Get("a"); !ok { // touch a → b is now LRU
		t.Fatal("a missing before eviction")
	}
	put("c") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("newest c was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(4)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.do("k", func() (interface{}, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, served, err := c.do("k", func() (interface{}, error) { calls++; return 7, nil })
	if err != nil || served || v.(int) != 7 {
		t.Fatalf("retry: v=%v served=%v err=%v", v, served, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors must not be cached)", calls)
	}
}

// TestCacheDisabledHasNoStale: a capacity <= 0 cache holds no answer,
// so nothing it computed is ever served again.
func TestCacheDisabledHasNoStale(t *testing.T) {
	c := NewCache(0)
	if _, _, err := c.do("k", func() (interface{}, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.stored("k"); ok {
		t.Fatal("disabled cache retained an answer")
	}
	if st := c.Stats(); st.Size != 0 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDisabledStillDeduplicates(t *testing.T) {
	c := NewCache(0)
	var calls int32
	started := make(chan struct{})
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.do("k", func() (interface{}, error) {
			atomic.AddInt32(&calls, 1)
			close(started)
			<-block
			return 1, nil
		})
	}()
	<-started
	const joiners = 4
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.do("k", func() (interface{}, error) {
				atomic.AddInt32(&calls, 1)
				return 1, nil
			})
		}()
	}
	waitFor(t, func() bool { return c.group.waiting("k") >= joiners })
	close(block)
	wg.Wait()
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	// Nothing retained: the next sequential Do recomputes.
	_, served, _ := c.do("k", func() (interface{}, error) { return 1, nil })
	if served {
		t.Fatal("capacity-0 cache retained an entry")
	}
}

// TestCacheReset: invalidating every key empties the cache, and the
// next lookup of a dropped key computes again.
func TestCacheReset(t *testing.T) {
	c := NewCache(4)
	c.do("k", func() (interface{}, error) { return 1, nil })
	if n := c.Invalidate(func(string) bool { return true }); n != 1 {
		t.Fatalf("Invalidate dropped %d entries, want 1", n)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry survived the reset")
	}
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("size = %d after the reset", st.Size)
	}
	if _, served, _ := c.do("k", func() (interface{}, error) { return 2, nil }); served {
		t.Fatal("a dropped key was served without computing")
	}
}

func TestCacheConcurrentMixedKeys(t *testing.T) {
	c := NewCache(8)
	var wg sync.WaitGroup
	keys := []string{"a", "b", "c", "d"}
	for i := 0; i < 32; i++ {
		key := keys[i%len(keys)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.do(key, func() (interface{}, error) { return key, nil })
			if err != nil || v.(string) != key {
				t.Errorf("Do(%q) = %v, %v", key, v, err)
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Size != len(keys) {
		t.Fatalf("size = %d, want %d", st.Size, len(keys))
	}
}

// TestCacheDoCtxClientDisconnect simulates a client disconnecting
// mid-compute: the DoCtx caller gets ctx.Err(), the computation still
// runs to completion, and its result lands in the cache for the next
// request.
func TestCacheDoCtxClientDisconnect(t *testing.T) {
	c := NewCache(4)
	started := make(chan struct{})
	block := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	var calls int32
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.doCtx(ctx, "k", func() (interface{}, error) {
			atomic.AddInt32(&calls, 1)
			close(started)
			<-block
			return "v", nil
		})
		errCh <- err
	}()
	<-started
	cancel() // client goes away mid-compute
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnected caller got %v", err)
	}
	close(block)

	// The detached flight completes and caches: the next request is a
	// pure hit with no recompute.
	waitFor(t, func() bool { _, ok := c.Get("k"); return ok })
	v, served, err := c.do("k", func() (interface{}, error) {
		atomic.AddInt32(&calls, 1)
		return "other", nil
	})
	if err != nil || !served || v.(string) != "v" {
		t.Fatalf("post-disconnect Do: v=%v served=%v err=%v", v, served, err)
	}
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
}

// TestCacheEvictedAnswerIsGone: the cache holds at most its capacity
// of answers, and an answer evicted past the bound is not served from
// anywhere: the next lookup of its key misses and computes it once.
func TestCacheEvictedAnswerIsGone(t *testing.T) {
	c := NewCache(2)
	computes := map[string]int{}
	put := func(k string) (bool, error) {
		_, served, err := c.do(k, func() (interface{}, error) { computes[k]++; return "val-" + k, nil })
		return served, err
	}
	for _, k := range []string{"a", "b", "c"} { // c evicts a
		if _, err := put(k); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 held and 1 eviction", st)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted a is still held")
	}
	if _, ok := c.stored("a"); ok {
		t.Fatal("evicted a is still stored")
	}
	if served, err := put("a"); err != nil || served {
		t.Fatalf("evicted a: served=%v err=%v, want a recompute", served, err)
	}
	if served, err := put("a"); err != nil || !served {
		t.Fatalf("recomputed a: served=%v err=%v, want a hit", served, err)
	}
	if computes["a"] != 2 {
		t.Fatalf("a computed %d times, want twice: once cold, once after its eviction", computes["a"])
	}
}

// TestCacheEvictionFollowsUse: a hit refreshes an answer's position, so
// a hot answer outlives colder, newer ones.
func TestCacheEvictionFollowsUse(t *testing.T) {
	c := NewCache(4)
	fill := func(keys ...string) {
		for _, k := range keys {
			k := k
			if _, _, err := c.do(k, func() (interface{}, error) { return k, nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill("a", "b")
	c.Get("a")          // order: a, b
	fill("c", "d", "e") // capacity 4: evicts the coldest — b, not the touched a

	if _, ok := c.Get("b"); ok {
		t.Fatal("cold b survived over touched a")
	}
	for _, k := range []string{"a", "c", "d", "e"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted", k)
		}
	}
}

// --- Partitioned (multi-tenant) cache --------------------------------------

// tenantScope maps "<tenant>:<rest>" keys to their tenant; keys with
// no prefix land in the shared "" scope.
func tenantScope(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == ':' {
			return key[:i]
		}
	}
	return ""
}

func newPartitioned(capacity int, overrides map[string]int, tenants ...string) *Cache {
	c := NewCache(capacity)
	c.SetScopeFunc(tenantScope)
	c.Partition(tenants, overrides)
	return c
}

func fill(t *testing.T, c *Cache, keys ...string) {
	t.Helper()
	for _, k := range keys {
		k := k
		if _, _, err := c.do(k, func() (interface{}, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheScopedEviction is the core isolation property: tenant a
// overfilling its budget evicts only its own entries; tenant b's stay.
func TestCacheScopedEviction(t *testing.T) {
	c := newPartitioned(8, nil, "a", "b") // fair share: 4 each
	if got := c.ScopeBudget("a"); got != 4 {
		t.Fatalf("budget(a) = %d, want 4", got)
	}
	fill(t, c, "b:1", "b:2", "b:3", "b:4")
	fill(t, c, "a:1", "a:2", "a:3", "a:4", "a:5", "a:6", "a:7", "a:8", "a:9", "a:10")

	st := c.Stats()
	a, b := st.Scopes["a"], st.Scopes["b"]
	if a.Size != 4 || a.Evictions != 6 {
		t.Fatalf("scope a = %+v, want size 4 with 6 evictions", a)
	}
	if b.Size != 4 || b.Evictions != 0 {
		t.Fatalf("scope b = %+v, want untouched by a's flood", b)
	}
	for _, k := range []string{"b:1", "b:2", "b:3", "b:4"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("b's entry %q evicted by a's fill", k)
		}
	}
}

// TestCacheBudgetOverrides: explicit budgets are honored and the
// remaining capacity is split fairly across unoverridden tenants.
func TestCacheBudgetOverrides(t *testing.T) {
	c := newPartitioned(10, map[string]int{"big": 6}, "big", "s1", "s2")
	if got := c.ScopeBudget("big"); got != 6 {
		t.Fatalf("budget(big) = %d, want override 6", got)
	}
	if got := c.ScopeBudget("s1"); got != 2 {
		t.Fatalf("budget(s1) = %d, want (10-6)/2 = 2", got)
	}
	// Budgets never round down to zero.
	c2 := newPartitioned(2, nil, "a", "b", "c", "d")
	if got := c2.ScopeBudget("a"); got != 1 {
		t.Fatalf("tiny budget = %d, want floor of 1", got)
	}
}

// TestCacheRepartitionShrinkEvicts: tightening a tenant's budget via a
// new Partition call trims it immediately, counting scoped evictions.
func TestCacheRepartitionShrinkEvicts(t *testing.T) {
	c := newPartitioned(8, nil, "a") // a alone: budget 8
	fill(t, c, "a:1", "a:2", "a:3", "a:4", "a:5", "a:6")
	c.Partition([]string{"a", "b"}, nil) // now 4 each
	st := c.Stats()
	if a := st.Scopes["a"]; a.Size != 4 || a.Evictions != 2 {
		t.Fatalf("scope a after shrink = %+v, want size 4, 2 evictions", a)
	}
	// LRU order respected: the oldest two went.
	if _, ok := c.Get("a:1"); ok {
		t.Fatal("a:1 survived the shrink")
	}
	if _, ok := c.Get("a:6"); !ok {
		t.Fatal("a:6 (most recent) evicted by the shrink")
	}
}

// TestCachePartitionBoundsHeldAnswers: each scope holds at most its
// budget of answers, whatever another tenant's churn.
func TestCachePartitionBoundsHeldAnswers(t *testing.T) {
	c := newPartitioned(4, nil, "a", "b") // 2 each
	fill(t, c, "b:1", "b:2")
	for i := 0; i < 10; i++ {
		fill(t, c, "a:"+string(rune('0'+i)))
	}
	st := c.Stats()
	if a := st.Scopes["a"]; a.Size != 2 || a.Evictions != 8 {
		t.Fatalf("scope a = %+v, want its budget of 2 held and 8 evictions", a)
	}
	if st.Size != 4 {
		t.Fatalf("cache holds %d answers, want its capacity of 4", st.Size)
	}
	for _, k := range []string{"b:1", "b:2"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("b's answer %q displaced by a's churn", k)
		}
	}
}

// TestCacheDropScopeResetsCounters: DropScope removes the entries AND
// the per-scope counters, so a deleted tenant vanishes from snapshots
// instead of ghosting at its last values.
func TestCacheDropScopeResetsCounters(t *testing.T) {
	c := newPartitioned(8, nil, "a", "b")
	fill(t, c, "a:1", "a:2", "b:1")
	c.Get("a:1")
	n := c.DropScope("a")
	if n != 2 {
		t.Fatalf("DropScope dropped %d entries, want 2", n)
	}
	st := c.Stats()
	if _, ok := st.Scopes["a"]; ok {
		t.Fatalf("dropped scope still in stats: %+v", st.Scopes)
	}
	if _, ok := st.Scopes["b"]; !ok {
		t.Fatal("unrelated scope dropped")
	}
	// The key space is reusable from zero.
	if _, ok := c.Get("a:1"); ok {
		t.Fatal("dropped entry still served")
	}
	if got := c.Stats().Scopes["a"].Hits; got != 0 {
		t.Fatalf("recreated scope inherited hits = %d", got)
	}
}

// TestCacheInvalidateKeepsScopeCounters: Invalidate is a corpus event
// (re-ingest), not a tenant teardown — the scope's counters survive.
func TestCacheInvalidateKeepsScopeCounters(t *testing.T) {
	c := newPartitioned(8, nil, "a", "b")
	fill(t, c, "a:1", "a:2")
	c.Get("a:1")
	dropped := c.Invalidate(func(key string) bool { return tenantScope(key) == "a" })
	if dropped != 2 {
		t.Fatalf("Invalidate dropped %d, want 2", dropped)
	}
	a := c.Stats().Scopes["a"]
	if a.Size != 0 {
		t.Fatalf("scope a entries survived: %+v", a)
	}
	if a.Hits != 1 || a.Misses != 2 {
		t.Fatalf("scope a counters reset by Invalidate: %+v", a)
	}
}

// TestCacheConcurrentInvalidateDoCtxEvictionRace hammers the three
// mutation paths — DoCtx computes at the budget boundary, Invalidate
// sweeps, and scoped eviction — concurrently across two tenants. Run
// under -race this proves the partitioned stores share no unguarded
// state; the assertions prove isolation holds through the churn.
func TestCacheConcurrentInvalidateDoCtxEvictionRace(t *testing.T) {
	c := newPartitioned(4, nil, "a", "b") // budget 2 each: every put is at the boundary
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	worker := func(tenant string) {
		defer wg.Done()
		keys := []string{tenant + ":1", tenant + ":2", tenant + ":3"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := keys[i%len(keys)]
			if _, _, err := c.doCtx(ctx, k, func() (interface{}, error) { return i, nil }); err != nil {
				t.Errorf("DoCtx(%q): %v", k, err)
				return
			}
		}
	}
	wg.Add(2)
	go worker("a")
	go worker("b")

	wg.Add(1)
	go func() { // concurrent invalidation of tenant a only
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Invalidate(func(key string) bool { return tenantScope(key) == "a" })
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	st := c.Stats()
	for scope, sc := range st.Scopes {
		if sc.Size > c.ScopeBudget(scope) {
			t.Fatalf("scope %s over budget: %+v", scope, sc)
		}
	}
	// b was never invalidated and never contended for a's budget: its
	// three keys rotate through a budget of two, nothing more.
	if b := st.Scopes["b"]; b.Size != 2 {
		t.Fatalf("scope b size = %d, want full budget of 2", b.Size)
	}
}

// TestCacheUnpartitionedScopeExcludedFromScopes: the "" scope is the
// aggregate itself; single-tenant snapshots keep their legacy shape.
func TestCacheUnpartitionedScopeExcludedFromScopes(t *testing.T) {
	c := NewCache(4)
	fill(t, c, "x", "y")
	st := c.Stats()
	if st.Scopes != nil {
		t.Fatalf("unpartitioned cache reported scopes: %+v", st.Scopes)
	}
	if st.Size != 2 {
		t.Fatalf("aggregate size = %d", st.Size)
	}
}

// TestInvalidateCountsEachAnswerOnce: an invalidation reports each
// held answer it drops once, an evicted answer is not held to drop,
// and nothing it dropped is served afterwards.
func TestInvalidateCountsEachAnswerOnce(t *testing.T) {
	c := NewCache(1)
	put := func(k string) {
		if _, _, err := c.do(k, func() (interface{}, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 1: storing a second key evicts the first.
	put("old@1|a")
	put("old@1|b")
	if n := c.Invalidate(func(k string) bool { return true }); n != 1 {
		t.Fatalf("Invalidate = %d, want 1: only b is held", n)
	}
	for _, k := range []string{"old@1|a", "old@1|b"} {
		if _, ok := c.stored(k); ok {
			t.Errorf("%s survived invalidation", k)
		}
	}
	if st := c.Stats(); st.Size != 0 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want nothing held and 1 eviction", st)
	}
}

// TestCacheFlightRechecksStore: a caller that misses, and reaches the
// singleflight group only after another flight has stored the key and
// ended, is served the stored value as a call that did not compute.
func TestCacheFlightRechecksStore(t *testing.T) {
	c := NewCache(4)
	var computes atomic.Int32
	compute := func(context.Context) (interface{}, error) {
		computes.Add(1)
		return "v", nil
	}
	// The traced caller reads its trace's clock when the trace starts,
	// when its lookup span starts and when the span ends as a miss. The
	// third read stalls it between the miss and the flight until the
	// other caller's flight has stored the key and ended.
	missed, resume := make(chan struct{}), make(chan struct{})
	var reads atomic.Int32
	tracer := obs.NewTracer(1, func() time.Time {
		if reads.Add(1) == 3 {
			close(missed)
			<-resume
		}
		return time.Unix(0, 0)
	})
	ctx, _ := tracer.Start(context.Background(), "stalled")
	type result struct {
		v      interface{}
		served bool
		err    error
	}
	done := make(chan result, 1)
	go func() {
		v, served, err := c.DoCtxFn(ctx, "k", compute)
		done <- result{v, served, err}
	}()
	select {
	case <-missed:
	case <-done:
		t.Fatal("the traced caller never stalled between its miss and its flight")
	}
	if v, served, err := c.DoCtxFn(context.Background(), "k", compute); v != "v" || served || err != nil {
		t.Fatalf("first caller: v=%v served=%v err=%v, want a computed v", v, served, err)
	}
	close(resume)
	r := <-done
	if r.v != "v" || !r.served || r.err != nil {
		t.Fatalf("stalled caller: v=%v served=%v err=%v, want v served without computing", r.v, r.served, r.err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("the key was computed %d times, want 1", n)
	}
}
