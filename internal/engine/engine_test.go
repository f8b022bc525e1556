package engine_test

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
	"csmaterials/internal/resilience"
	"csmaterials/internal/serving"
)

// fakeParams is the minimal Params implementation.
type fakeParams struct {
	key     string
	invalid bool
}

func (p fakeParams) Validate() error {
	if p.invalid {
		return fmt.Errorf("invalid combination")
	}
	return nil
}

func (p fakeParams) CacheKey() string { return p.key }

// fakeAnalysis is a registry entry whose Compute is a swappable
// function; it is the "one registration" the engine design promises —
// everything else (cache keys, singleflight, breakers, batch) comes
// from the executor.
type fakeAnalysis struct {
	name string
	warm []engine.Params
	fn   atomic.Value // func(context.Context, fakeParams) (interface{}, error)
}

func newFake(name string) *fakeAnalysis {
	f := &fakeAnalysis{name: name}
	f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		return "value:" + p.key, nil
	})
	return f
}

func (f *fakeAnalysis) set(fn func(context.Context, fakeParams) (interface{}, error)) {
	f.fn.Store(fn)
}

func (f *fakeAnalysis) Name() string { return f.name }

func (f *fakeAnalysis) Parse(v url.Values) (engine.Params, error) {
	if v.Get("key") == "unparsable" {
		return nil, fmt.Errorf("bad key")
	}
	return fakeParams{key: v.Get("key"), invalid: v.Get("key") == "invalid"}, nil
}

// Scope declares every course, as a compute that reads the whole
// dataset would.
func (f *fakeAnalysis) Scope(engine.Params) materials.Scope { return materials.Scope{Group: "all"} }

func (f *fakeAnalysis) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	fn := f.fn.Load().(func(context.Context, fakeParams) (interface{}, error))
	return fn(ctx, p.(fakeParams))
}

func (f *fakeAnalysis) WarmParams() []engine.Params { return f.warm }

// newFakeExecutor builds an executor over one fake analysis with the
// full ladder enabled: a one-dataset registry holding the seed corpus,
// a 16-answer cache and breakers (threshold 3).
func newFakeExecutor(f *fakeAnalysis) (*engine.Executor, *serving.Cache, *resilience.BreakerSet) {
	cache := serving.NewCache(16)
	breakers := resilience.NewBreakerSet(3, time.Minute)
	e := engine.NewExecutor(engine.NewRegistry(f), engine.ExecutorOptions{
		Datasets: dataset.NewRegistry(nil),
		Cache:    cache,
		Breakers: breakers,
	})
	return e, cache, breakers
}

func vals(key string) url.Values { return url.Values{"key": []string{key}} }

// TestFakeAnalysisFullLadder registers ONE fake analysis and drives it
// through every serving behaviour the executor promises — miss, hit,
// held answers under a failing compute and an open circuit, circuit
// breaking, recovery, eviction, and batch — proving that an analysis
// gets the whole ladder from a single registration.
func TestFakeAnalysisFullLadder(t *testing.T) {
	f := newFake("fake")
	var computes int32
	healthy := func(ctx context.Context, p fakeParams) (interface{}, error) {
		atomic.AddInt32(&computes, 1)
		return "value:" + p.key, nil
	}
	f.set(healthy)
	e, cache, breakers := newFakeExecutor(f)
	ctx := context.Background()
	run := func(key string) (interface{}, engine.Outcome, error) {
		return e.Run(ctx, "fake", vals(key))
	}

	// Miss then hit under the canonical key.
	v, out, err := run("a")
	if err != nil || v != "value:a" || out.Cache != "miss" || out.Key != "fake|a" {
		t.Fatalf("first run: v=%v out=%+v err=%v", v, out, err)
	}
	if _, out, _ := run("a"); out.Cache != "hit" {
		t.Fatalf("second run not a hit: %+v", out)
	}
	if n := atomic.LoadInt32(&computes); n != 1 {
		t.Fatalf("computes = %d, want 1", n)
	}

	// Break the compute path. The held answer is still a hit: it never
	// reaches the breaker or the compute.
	f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		atomic.AddInt32(&computes, 1)
		return nil, fmt.Errorf("backend exploded")
	})
	for i := 0; i < 3; i++ {
		if v, out, err := run("a"); err != nil || v != "value:a" || out.Cache != "hit" {
			t.Fatalf("held run %d: v=%v out=%+v err=%v", i, v, out, err)
		}
	}
	if n := atomic.LoadInt32(&computes); n != 1 {
		t.Fatalf("held answers computed: computes = %d, want 1", n)
	}

	// An answer that is not held computes and fails; each failing flight
	// records exactly one breaker failure, and three open the circuit.
	for i := 1; i <= 3; i++ {
		if _, _, err := run("b"); err == nil || errors.Is(err, resilience.ErrOpen) {
			t.Fatalf("unheld run %d: err = %v, want the compute's error", i, err)
		}
		if bs := breakers.Get("fake").Stats(); bs.Failures != uint64(i) {
			t.Fatalf("after %d failing flights the breaker recorded %d failures", i, bs.Failures)
		}
	}
	if st := breakers.Get("fake").Stats(); st.State != "open" {
		t.Fatalf("breaker state = %q, want open", st.State)
	}

	// Open circuit: an uncached key fails fast with ErrOpen without
	// touching Compute, while the held answer is still a hit.
	before := atomic.LoadInt32(&computes)
	if _, _, err := run("c"); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("uncached key under open circuit: err = %v", err)
	}
	if v, out, err := run("a"); err != nil || v != "value:a" || out.Cache != "hit" {
		t.Fatalf("held key under open circuit: v=%v out=%+v err=%v", v, out, err)
	}
	if atomic.LoadInt32(&computes) != before {
		t.Fatal("open circuit still invoked Compute")
	}
	if st := e.Stats().Analyses["fake"]; st.Failures != 3 || st.Computes != 4 {
		t.Fatalf("stats = %+v, want 3 failures of 4 computes", st)
	}

	// Heal and wait out the cooldown: the half-open probe recomputes and
	// serving resumes.
	breakers.SetClock(func() time.Time { return time.Now().Add(2 * time.Minute) })
	f.set(healthy)
	v, out, err = run("b")
	if err != nil || v != "value:b" || out.Cache != "miss" {
		t.Fatalf("post-recovery run: v=%v out=%+v err=%v", v, out, err)
	}

	// An answer evicted past the bound is gone: its next read computes
	// it once, and the one after is a hit.
	for i := 0; i < cache.Stats().Capacity; i++ {
		if _, _, err := run(fmt.Sprintf("filler-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before = atomic.LoadInt32(&computes)
	for i, want := range []string{"miss", "hit"} {
		if v, out, err := run("a"); err != nil || v != "value:a" || out.Cache != want {
			t.Fatalf("evicted key, read %d: v=%v out=%+v err=%v, want %s", i, v, out, err, want)
		}
	}
	if n := atomic.LoadInt32(&computes) - before; n != 1 {
		t.Fatalf("the evicted answer was computed %d times, want once", n)
	}

	// The same registration serves batch items with identical semantics:
	// b was evicted by the fillers, a was just recomputed.
	results := e.RunBatch(ctx, []engine.BatchItem{
		{Analysis: "fake", Params: map[string]string{"key": "a"}},
		{Analysis: "fake", Params: map[string]string{"key": "b"}},
	})
	if results[0].Error != nil || results[0].Cache != "hit" || results[0].Data != "value:a" {
		t.Fatalf("batch[0] = %+v", results[0])
	}
	if results[1].Error != nil || results[1].Cache != "miss" || results[1].Data != "value:b" {
		t.Fatalf("batch[1] = %+v", results[1])
	}
}

// TestRunErrors: unknown analyses, parse failures, and validation
// failures surface as typed *Errors with the right statuses.
func TestRunErrors(t *testing.T) {
	e, _, _ := newFakeExecutor(newFake("fake"))
	cases := []struct {
		name       string
		analysis   string
		key        string
		wantStatus int
		wantCode   string
	}{
		{"unknown analysis", "bogus", "a", 404, "not_found"},
		{"parse failure", "fake", "unparsable", 400, "bad_request"},
		{"validate failure", "fake", "invalid", 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := e.Run(context.Background(), tc.analysis, vals(tc.key))
			var ee *engine.Error
			if !errors.As(err, &ee) {
				t.Fatalf("err = %v, want *engine.Error", err)
			}
			if ee.Status != tc.wantStatus || ee.Code != tc.wantCode {
				t.Fatalf("error = %+v", ee)
			}
		})
	}
}

// TestClientErrorsDoNotTripBreaker: 4xx analysis errors are the service
// working correctly; the circuit stays closed and nothing degrades.
func TestClientErrorsDoNotTripBreaker(t *testing.T) {
	f := newFake("fake")
	f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		return nil, engine.Errorf(404, "not_found", "no such thing %q", p.key)
	})
	e, _, breakers := newFakeExecutor(f)
	for i := 0; i < 5; i++ {
		_, _, err := e.Run(context.Background(), "fake", vals("a"))
		var ee *engine.Error
		if !errors.As(err, &ee) || ee.Status != 404 {
			t.Fatalf("run %d err = %v", i, err)
		}
	}
	if st := breakers.Get("fake").Stats(); st.State != "closed" {
		t.Fatalf("breaker state after 4xx errors = %q, want closed", st.State)
	}
	if st := e.Stats().Analyses["fake"]; st.Failures != 0 {
		t.Fatalf("4xx errors counted as failures: %+v", st)
	}
}

// TestCancellationStopsCompute is the engine's cancellation contract
// end to end: the caller's context cancellation reaches the compute's
// flight context (so an NNMF-style loop can stop), Run returns
// context.Canceled promptly, the breaker does not trip, and nothing is
// cached.
func TestCancellationStopsCompute(t *testing.T) {
	f := newFake("fake")
	started := make(chan struct{})
	stopped := make(chan error, 1)
	f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		close(started)
		<-ctx.Done() // a context-aware compute observes the cancellation
		stopped <- ctx.Err()
		return nil, ctx.Err()
	})
	e, cache, breakers := newFakeExecutor(f)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := e.Run(ctx, "fake", vals("a"))
		errc <- err
	}()
	<-started
	cancel()

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("compute saw %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("compute's flight context was never cancelled")
	}

	// Cancellation is not a failure: breaker closed, nothing cached.
	if st := breakers.Get("fake").Stats(); st.State != "closed" || st.Failures != 0 {
		t.Fatalf("breaker after cancellation = %+v", st)
	}
	if st := cache.Stats(); st.Size != 0 {
		t.Fatalf("cancelled compute was cached: %+v", st)
	}
}

// scopeRecorder answers with the IDs of the courses of the repository
// its compute is handed. Its key names its scope: "group:<g>",
// "course:<id>", or anything else for no course.
type scopeRecorder struct{ *fakeAnalysis }

func (scopeRecorder) Scope(p engine.Params) materials.Scope {
	switch kind, arg, _ := strings.Cut(p.(fakeParams).key, ":"); kind {
	case "group":
		return materials.Scope{Group: arg}
	case "course":
		return materials.Scope{Course: arg}
	}
	return materials.Scope{}
}

func (scopeRecorder) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	ids := []string{}
	for _, c := range repo.Courses() {
		ids = append(ids, c.ID)
	}
	return ids, nil
}

// TestComputeReadsOnlyItsScope: the executor hands a compute exactly
// the courses its scope names, in dataset order, for a group, a course
// and no course; and so does every answer it holds after a PUT that
// moves one course from CS1 into PDC and its refresh.
func TestComputeReadsOnlyItsScope(t *testing.T) {
	const ds = "scoped"
	datasets := dataset.NewRegistry(nil)
	snap, err := datasets.Put(ds, dataset.Courses())
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewExecutor(engine.NewRegistry(scopeRecorder{newFake("ids")}),
		engine.ExecutorOptions{Datasets: datasets, Cache: serving.NewCache(64)})
	moved := dataset.CS1CourseIDs()[0]
	keys := []string{"group:all", "group:cs1", "group:pdc", "course:" + moved, "none"}
	check := func(stage string) {
		t.Helper()
		for _, key := range keys {
			s := scopeRecorder{}.Scope(fakeParams{key: key})
			want := []string{}
			for _, c := range snap.Repo().Courses() {
				if c.ID == s.Course || (s.Group != "" && c.InGroup(s.Group)) {
					want = append(want, c.ID)
				}
			}
			v, out, err := e.RunOn(context.Background(), ds, "ids", vals(key))
			if err != nil {
				t.Fatalf("%s, %s: %v", stage, key, err)
			}
			if got := v.([]string); !slices.Equal(got, want) {
				t.Errorf("%s, %s (cache %s): the compute read %v, want %v", stage, key, out.Cache, got, want)
			}
		}
	}
	check("before the PUT")
	doc := dataset.Courses()
	for i, c := range doc {
		if c.ID == moved {
			if c.SecondaryGroup != "" || c.Group != materials.GroupCS1 {
				t.Fatalf("%s is not a CS1-only course", moved)
			}
			cp := c.Clone()
			cp.Group = materials.GroupPDC
			doc[i] = cp
		}
	}
	if snap, err = datasets.Put(ds, doc); err != nil {
		t.Fatal(err)
	}
	if out := e.ApplyDelta(context.Background(), ds, snap); out.Invalidated == 0 {
		t.Fatalf("moving %s into PDC invalidated nothing", moved)
	}
	check("after the PUT")
}

// TestWarm pre-computes the Warmer's params so the first live request
// is a hit, and surfaces warm failures.
func TestWarm(t *testing.T) {
	f := newFake("fake")
	f.warm = []engine.Params{fakeParams{key: "warmed"}}
	e, _, _ := newFakeExecutor(f)
	if err := e.WarmDataset(context.Background(), dataset.DefaultID); err != nil {
		t.Fatal(err)
	}
	if _, out, _ := e.Run(context.Background(), "fake", vals("warmed")); out.Cache != "hit" {
		t.Fatalf("warmed key not a hit: %+v", out)
	}

	broken := newFake("broken")
	broken.warm = []engine.Params{fakeParams{key: "w"}}
	broken.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		return nil, fmt.Errorf("warm exploded")
	})
	e2, _, _ := newFakeExecutor(broken)
	if err := e2.WarmDataset(context.Background(), dataset.DefaultID); err == nil {
		t.Fatal("WarmDataset swallowed the compute failure")
	}
}

// TestRegistry covers registration-order iteration, duplicate
// rejection, and the Replace test seam.
func TestRegistry(t *testing.T) {
	b, a := newFake("beta"), newFake("alpha")
	r := engine.NewRegistry(b, a)
	if names := r.Names(); len(names) != 2 || names[0] != "beta" || names[1] != "alpha" {
		t.Fatalf("Names() = %v, want registration order", names)
	}
	if names := r.SortedNames(); names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("SortedNames() = %v", names)
	}
	if err := r.Register(newFake("beta")); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	if err := r.Register(newFake("")); err == nil {
		t.Fatal("empty-name Register succeeded")
	}

	r.Replace(newFake("alpha"))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Replace of unregistered name did not panic")
			}
		}()
		r.Replace(newFake("gamma"))
	}()
}

// TestErrorMapping covers the transport coercions the HTTP layer and
// the batch envelopes rely on.
func TestErrorMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
		failure    bool
	}{
		{"typed error", engine.Errorf(404, "not_found", "x"), 404, "not_found", false},
		{"typed 5xx", engine.Errorf(502, "upstream", "x"), 502, "upstream", true},
		{"open circuit", resilience.ErrOpen, 503, "circuit_open", false},
		{"canceled", context.Canceled, 499, "canceled", false},
		{"deadline", context.DeadlineExceeded, 504, "timeout", true},
		{"plain error", fmt.Errorf("boom"), 500, "internal", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ee := engine.AsError(tc.err)
			if ee.Status != tc.wantStatus || ee.Code != tc.wantCode {
				t.Fatalf("AsError(%v) = %+v", tc.err, ee)
			}
			if got := engine.IsServerFailure(tc.err); got != tc.failure {
				t.Fatalf("IsServerFailure(%v) = %v, want %v", tc.err, got, tc.failure)
			}
		})
	}
	if engine.IsServerFailure(nil) {
		t.Fatal("nil classified as failure")
	}
	// ErrOpen must not feed back into the breaker that raised it.
	if engine.IsServerFailure(resilience.ErrOpen) {
		t.Fatal("ErrOpen classified as failure")
	}
}
