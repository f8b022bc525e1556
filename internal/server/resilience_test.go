package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/resilience"
	"csmaterials/internal/resilience/faultinject"
)

// waitFor polls cond until true or a 5s budget runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// fakeClock is a manually advanced time source for breaker cooldowns.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestShedderRejects429UnderOverload is degradation stage 1: the fault
// injector holds one in-flight request on a channel, and with
// MaxInFlight 1 the next request is shed immediately with 429 and a
// Retry-After hint instead of queueing behind the slow one.
func TestShedderRejects429UnderOverload(t *testing.T) {
	hold := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(hold)
		}
	}()
	inj := faultinject.New(1, faultinject.Rule{Match: "/api/v1/courses", Probability: 1, Hold: hold})
	s, err := NewWithOptions(Options{MaxInFlight: 1, Faults: inj, disableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	firstStatus := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/api/v1/courses")
		if err != nil {
			firstStatus <- -1
			return
		}
		resp.Body.Close()
		firstStatus <- resp.StatusCode
	}()
	waitFor(t, "held request admitted", func() bool { return s.limiter.InFlight() == 1 })

	// The server is at capacity: this request is rejected before any
	// work happens on its behalf.
	resp, body := get(t, ts, "/api/v1/courses")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429\n%s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var e errEnv
	decode(t, body, &e)
	if e.Error.Code != "capacity" {
		t.Fatalf("error envelope = %+v", e)
	}

	// Liveness and observability stay reachable while the API sheds.
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != 200 {
		t.Fatal("healthz shed under load")
	}

	released = true
	close(hold)
	if got := <-firstStatus; got != 200 {
		t.Fatalf("held request finished with %d", got)
	}

	// The shed shows up in the shedder's rejection counter and in the
	// per-route 429 accounting.
	if v, err := strconv.Atoi(metricValue(t, ts, "csm_shed_rejected_total")); err != nil || v < 1 {
		t.Fatalf("csm_shed_rejected_total = %d (%v), want >= 1", v, err)
	}
	if v := metricValue(t, ts, `csm_http_requests_total{route="GET /api/v1/courses",status="429"}`); v != "1" {
		t.Fatalf("429s metered on the courses route = %s, want 1", v)
	}
}

// metricValue scrapes /metrics and returns the value of one series,
// named exactly as the exposition writes it.
func metricValue(t *testing.T, ts *httptest.Server, series string) string {
	t.Helper()
	_, body := get(t, ts, "/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return ""
}

// TestBreakerServesHeldAnswers walks stage 2 of the ladder end to end
// under injected compute failures. A held answer is a hit whatever the
// compute path does: its exact bytes, meta.cache "hit", no compute and
// no breaker decision, before and after the circuit opens. An answer
// that is not held computes and fails; each failing flight records one
// breaker failure, the threshold opens the circuit, and then such an
// answer fails fast with 503 circuit_open + Retry-After. After recovery
// the half-open probe closes the circuit, and an answer evicted past
// the cache bound is computed exactly once more.
func TestBreakerServesHeldAnswers(t *testing.T) {
	clk := newFakeClock()
	inj := faultinject.New(1)
	s, err := NewWithOptions(Options{
		CacheSize:        8,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
		Faults:           inj,
		disableWarmup:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.breakers.SetClock(clk.Now)
	var calls int32
	countCompute(t, s, "types", &calls)
	s.warmup(context.Background()) // synchronous: /readyz is usable for breaker reporting
	ts := httptest.NewServer(s)
	defer ts.Close()
	const held, computes = "/api/v1/types?group=cs1&k=3", `csm_analysis_computes_total{analysis="types",dataset="default"}`
	typesBreaker := func() resilience.BreakerStats { return s.breakers.Get("types").Stats() }

	// Healthy: hold one answer.
	resp, primed := get(t, ts, held)
	var pe env
	decode(t, primed, &pe)
	if resp.StatusCode != 200 || pe.Meta.Cache != "miss" {
		t.Fatalf("prime: status %d meta %+v", resp.StatusCode, pe.Meta)
	}
	// checkHeld asserts the held answer is served byte-exact as a hit,
	// with no compute and no breaker decision.
	checkHeld := func(when string) {
		t.Helper()
		before, breaker := metricValue(t, ts, computes), typesBreaker()
		resp, body := get(t, ts, held)
		var e env
		decode(t, body, &e)
		if resp.StatusCode != 200 || e.Meta.Cache != "hit" || !bytes.Equal(e.Data, pe.Data) {
			t.Fatalf("%s: held answer status %d meta %+v, want its primed bytes as a hit", when, resp.StatusCode, e.Meta)
		}
		if h := resp.Header.Get("X-Served-Stale"); h != "" || bytes.Contains(body, []byte(`"stale"`)) {
			t.Fatalf("%s: a held answer is marked degraded (header %q)\n%s", when, h, body)
		}
		if after := metricValue(t, ts, computes); after != before {
			t.Fatalf("%s: csm_analysis_computes_total moved %s -> %s on a held answer", when, before, after)
		}
		if after := typesBreaker(); after.Failures != breaker.Failures || after.Successes != breaker.Successes || after.Rejected != breaker.Rejected {
			t.Fatalf("%s: a held answer reached the breaker: %+v -> %+v", when, breaker, after)
		}
	}

	// Every types compute now fails before reaching factorize.Analyze.
	inj.SetRules(faultinject.Rule{Match: "compute/types", Probability: 1, Status: 500})
	checkHeld("compute failing")

	// An answer that is not held fails with the compute's error; each
	// failing flight records exactly one breaker failure.
	for i := 1; i <= 3; i++ {
		resp, body := get(t, ts, "/api/v1/types?group=cs1&k=4")
		var ee errEnv
		decode(t, body, &ee)
		if resp.StatusCode != http.StatusInternalServerError || ee.Error.Code != "internal" {
			t.Fatalf("failing request %d: status %d\n%s", i, resp.StatusCode, body)
		}
		if bs := typesBreaker(); bs.Failures != uint64(i) {
			t.Fatalf("after %d failing flights the breaker recorded %d failures", i, bs.Failures)
		}
	}

	// Three consecutive failures: the types circuit is open, and
	// /readyz reports it.
	if st := typesBreaker().State; st != "open" {
		t.Fatalf("types breaker = %q, want open", st)
	}
	re := getEnvelope(t, ts, "/readyz", 200)
	var ready struct {
		Status   string `json:"status"`
		Breakers map[string]struct {
			State string `json:"state"`
		} `json:"breakers"`
	}
	decode(t, re.Data, &ready)
	if ready.Status != "ready" || ready.Breakers["types"].State != "open" {
		t.Fatalf("readyz = %+v", ready)
	}

	// Open circuit, answer not held: fail fast with 503 + Retry-After,
	// without attempting the compute.
	resp, body := get(t, ts, "/api/v1/types?group=cs1&k=5")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unheld key under open circuit: status %d\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("circuit_open 503 without Retry-After")
	}
	var ee errEnv
	decode(t, body, &ee)
	if ee.Error.Code != "circuit_open" {
		t.Fatalf("error envelope = %+v", ee)
	}

	// The held answer still serves while open; other analyses' breakers
	// are untouched (independent circuits).
	checkHeld("circuit open")
	if getEnvelope(t, ts, "/api/v1/cluster?group=cs1&k=2", 200); s.breakers.Get("cluster").Stats().State != "closed" {
		t.Fatal("cluster breaker affected by types failures")
	}
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("types Compute ran %d times; the breaker/injector should have kept it at the 1 priming call", n)
	}

	// /metrics exposes breaker state (2 = open).
	if v := metricValue(t, ts, `csm_breaker_state{analysis="types",dataset="default"}`); v != "2" {
		t.Fatalf("types breaker state = %s, want 2 (open)", v)
	}

	// Recovery: faults clear and the cooldown elapses. The next miss is
	// admitted as the half-open probe, succeeds, and closes the circuit.
	inj.SetRules()
	clk.Advance(time.Minute + time.Second)
	if e := getEnvelope(t, ts, "/api/v1/types?group=cs1&k=4", 200); e.Meta.Cache != "miss" {
		t.Fatalf("recovery probe meta = %+v", e.Meta)
	}
	if st := typesBreaker(); st.State != "closed" {
		t.Fatalf("breaker after successful probe = %+v", st)
	}
	if n := atomic.LoadInt32(&calls); n != 2 {
		t.Fatalf("types Compute ran %d times, want 2 (prime + recovery probe)", n)
	}

	// Eight agreement reads push the held answer past the bound. It is not
	// served from anywhere: under a failing compute it fails, and once
	// the compute heals it is computed exactly once more.
	for th := 2; th < 10; th++ {
		getEnvelope(t, ts, fmt.Sprintf("/api/v1/agreement?group=all&threshold=%d", th), 200)
	}
	inj.SetRules(faultinject.Rule{Match: "compute/types", Probability: 1, Status: 500})
	if resp, body := get(t, ts, held); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("evicted answer under a failing compute: status %d\n%s", resp.StatusCode, body)
	}
	inj.SetRules()
	for _, want := range []string{"miss", "hit"} {
		if e := getEnvelope(t, ts, held, 200); e.Meta.Cache != want || !bytes.Equal(e.Data, pe.Data) {
			t.Fatalf("evicted answer: meta %+v, want its primed bytes as a %s", e.Meta, want)
		}
	}
	if n := atomic.LoadInt32(&calls); n != 3 {
		t.Fatalf("types Compute ran %d times, want 3: the evicted answer recomputed once", n)
	}
}

// TestStaleServeDisabled: no answer is ever served degraded. A failing
// compute of an answer the cache does not hold surfaces as its error,
// with no X-Served-Stale header, even though the same answer was
// computed before.
func TestStaleServeDisabled(t *testing.T) {
	inj := faultinject.New(1)
	s, err := NewWithOptions(Options{Faults: inj, disableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	getEnvelope(t, ts, "/api/v1/cluster?group=cs1&k=2", 200)
	if n := s.Cache().Invalidate(func(string) bool { return true }); n != 1 {
		t.Fatalf("dropped %d answers, want the one cluster answer", n)
	}
	inj.SetRules(faultinject.Rule{Match: "compute/cluster", Probability: 1, Status: 500})
	resp, body := get(t, ts, "/api/v1/cluster?group=cs1&k=2")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Served-Stale") != "" {
		t.Fatal("X-Served-Stale set on an error response")
	}
	if bs := s.breakers.Get("cluster").Stats(); bs.Failures != 1 {
		t.Fatalf("one failing flight recorded %d breaker failures, want 1", bs.Failures)
	}
}

// TestReadyzFlips: /readyz is 503 before the warmup completes and 200
// after, while /healthz is 200 throughout (liveness != readiness).
func TestReadyzFlips(t *testing.T) {
	s, err := NewWithOptions(Options{disableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-warmup readyz = %d\n%s", resp.StatusCode, body)
	}
	var e env
	decode(t, body, &e)
	var ready struct {
		Status string `json:"status"`
	}
	decode(t, e.Data, &ready)
	if ready.Status != "starting" {
		t.Fatalf("pre-warmup status = %q", ready.Status)
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != 200 {
		t.Fatal("healthz not 200 while starting")
	}

	s.warmup(context.Background())
	e = getEnvelope(t, ts, "/readyz", 200)
	decode(t, e.Data, &ready)
	if ready.Status != "ready" {
		t.Fatalf("post-warmup status = %q", ready.Status)
	}

	// The warmup populated the agreement cache: the first real request
	// for the warmed key is already a hit.
	ae := getEnvelope(t, ts, "/api/v1/agreement?group=all&threshold=2", 200)
	if ae.Meta.Cache != "hit" {
		t.Fatalf("warmed agreement request meta = %+v", ae.Meta)
	}
}

// TestReadyzDefaultWarmup: the default constructor warms up on its own
// and becomes ready without manual intervention.
func TestReadyzDefaultWarmup(t *testing.T) {
	_, ts := newTestServer(t)
	waitFor(t, "server became ready", func() bool {
		resp, _ := get(t, ts, "/readyz")
		return resp.StatusCode == 200
	})
}

// TestOneCourseClusterIsBadRequest: clustering a group that holds one
// course is a fault of the request's parameters, not of the compute
// path. Past the breaker threshold every such read still answers 400
// bad_request, the tenant's cluster breaker records no failure, and a
// valid cluster read of the tenant answers 200.
func TestOneCourseClusterIsBadRequest(t *testing.T) {
	s := newObsServer(t, Options{})
	doc := putBody(t, dataset.CoursesByID([]string{"uncc-3145-saule", "uncc-2214-krs"})...)
	if w := do(t, s, http.MethodPut, "/api/v1/datasets/solo", string(doc)); w.Code != http.StatusOK {
		t.Fatalf("PUT solo: %d %s", w.Code, w.Body.Bytes())
	}
	for i := 0; i <= resilience.DefaultBreakerThreshold; i++ {
		w := do(t, s, http.MethodGet, "/api/v1/datasets/solo/cluster?group=pdc", "")
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"code": "bad_request"`) {
			t.Fatalf("read %d of a one-course cluster: %d %s", i+1, w.Code, w.Body.Bytes())
		}
	}
	if st := s.breakers.Get("solo/cluster").Stats(); st.State != "closed" || st.Failures != 0 {
		t.Fatalf("the cluster breaker after one-course reads: %+v, want closed with no failure", st)
	}
	if w := do(t, s, http.MethodGet, "/api/v1/datasets/solo/cluster?group=all&k=2", ""); w.Code != http.StatusOK {
		t.Fatalf("cluster?group=all&k=2: %d %s", w.Code, w.Body.Bytes())
	}
}
