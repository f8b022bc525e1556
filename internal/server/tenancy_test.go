package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"csmaterials/internal/resilience/faultinject"
)

// doKey is do with an API key attached via X-API-Key.
func doKey(t *testing.T, s *Server, method, path, body, key string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	if key != "" {
		r.Header.Set("X-API-Key", key)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

func wantErrCode(t *testing.T, w *httptest.ResponseRecorder, status int, code string) {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status %d, want %d\n%s", w.Code, status, w.Body.Bytes())
	}
	var e errEnv
	decode(t, w.Body.Bytes(), &e)
	if e.Error.Code != code {
		t.Fatalf("error code %q, want %q", e.Error.Code, code)
	}
}

// keyedServer builds a server with alice/bob tenant keys, a root admin
// key, and a pre-declared grant making "preowned" alice's dataset.
func keyedServer(t *testing.T) *Server {
	t.Helper()
	return newObsServer(t, Options{APIKeys: &KeysFile{
		Keys: []APIKey{
			{Key: "alice-secret", Name: "alice"},
			{Key: "bob-secret", Name: "bob"},
			{Key: "root-secret", Name: "root", Admin: true},
		},
		Datasets: map[string]DatasetGrant{
			"preowned": {Owner: "alice"},
		},
	}})
}

// TestIngestAuth covers the keyed mutation surface end to end:
// 401 without/with an unknown key, first-writer ownership claim,
// 403 for the wrong tenant, admin override, ownership declared in the
// keys file before any ingest, and ownership surviving DELETE so a
// deleted name cannot be taken over.
func TestIngestAuth(t *testing.T) {
	s := keyedServer(t)
	doc := corpusDoc(t, 3)

	// Reads need no key even when the keyring is configured.
	if w := do(t, s, http.MethodGet, "/api/v1/courses", ""); w.Code != 200 {
		t.Fatalf("unauthenticated read: status %d", w.Code)
	}

	// No key and unknown key are both 401 with a challenge; the body is
	// never decoded (the rejection happens before ingest starts).
	w := doKey(t, s, http.MethodPut, "/api/v1/datasets/mine", doc, "")
	wantErrCode(t, w, http.StatusUnauthorized, "unauthorized")
	if w.Header().Get("WWW-Authenticate") != "Bearer" {
		t.Fatal("401 without WWW-Authenticate challenge")
	}
	w = doKey(t, s, http.MethodPut, "/api/v1/datasets/mine", doc, "wrong")
	wantErrCode(t, w, http.StatusUnauthorized, "unauthorized")

	// The Authorization: Bearer form works too.
	r := httptest.NewRequest(http.MethodPut, "/api/v1/datasets/mine", strings.NewReader(doc))
	r.Header.Set("Authorization", "Bearer alice-secret")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, r)
	if rec.Code != 200 {
		t.Fatalf("bearer ingest: status %d\n%s", rec.Code, rec.Body.Bytes())
	}

	// First keyed writer claimed the unowned name.
	if owner := s.Datasets().Attrs("mine").Owner; owner != "alice" {
		t.Fatalf("owner after first ingest = %q, want alice", owner)
	}
	w = do(t, s, http.MethodGet, "/api/v1/datasets/mine", "")
	var ce struct {
		Data struct {
			Owner string `json:"owner"`
		} `json:"data"`
	}
	decode(t, w.Body.Bytes(), &ce)
	if ce.Data.Owner != "alice" {
		t.Fatalf("catalog owner = %q, want alice: %s", ce.Data.Owner, w.Body.Bytes())
	}

	// Another tenant can neither re-ingest nor delete alice's dataset.
	wantErrCode(t, doKey(t, s, http.MethodPut, "/api/v1/datasets/mine", doc, "bob-secret"),
		http.StatusForbidden, "forbidden")
	wantErrCode(t, doKey(t, s, http.MethodDelete, "/api/v1/datasets/mine", "", "bob-secret"),
		http.StatusForbidden, "forbidden")

	// Ownership can be declared in the keys file before any ingest:
	// bob cannot create "preowned", alice can.
	wantErrCode(t, doKey(t, s, http.MethodPut, "/api/v1/datasets/preowned", doc, "bob-secret"),
		http.StatusForbidden, "forbidden")
	if w := doKey(t, s, http.MethodPut, "/api/v1/datasets/preowned", doc, "alice-secret"); w.Code != 200 {
		t.Fatalf("owner ingest of pre-granted dataset: status %d\n%s", w.Code, w.Body.Bytes())
	}

	// Admin keys override ownership; ownership survives the delete, so
	// bob still cannot take the vacated name but alice can recreate it.
	if w := doKey(t, s, http.MethodDelete, "/api/v1/datasets/mine", "", "root-secret"); w.Code != 200 {
		t.Fatalf("admin delete: status %d\n%s", w.Code, w.Body.Bytes())
	}
	wantErrCode(t, doKey(t, s, http.MethodPut, "/api/v1/datasets/mine", doc, "bob-secret"),
		http.StatusForbidden, "forbidden")
	if w := doKey(t, s, http.MethodPut, "/api/v1/datasets/mine", doc, "alice-secret"); w.Code != 200 {
		t.Fatalf("owner re-create after delete: status %d\n%s", w.Code, w.Body.Bytes())
	}
}

// TestOpenModeKeepsLegacySurface pins the single-tenant compatibility
// contract: with no keys configured, mutations need no credentials,
// and no csm_tenant_* families appear in the Prometheus text.
func TestOpenModeKeepsLegacySurface(t *testing.T) {
	s := newObsServer(t, Options{})
	if w := do(t, s, http.MethodPut, "/api/v1/datasets/free", corpusDoc(t, 2)); w.Code != 200 {
		t.Fatalf("open-mode ingest: status %d\n%s", w.Code, w.Body.Bytes())
	}
	if w := do(t, s, http.MethodDelete, "/api/v1/datasets/free", ""); w.Code != 200 {
		t.Fatalf("open-mode delete: status %d\n%s", w.Code, w.Body.Bytes())
	}

	// Back to a single tenant: /metrics carries no tenant families.
	w := do(t, s, http.MethodGet, "/metrics", "")
	for _, fam := range []string{"csm_tenant_", "csm_dataset_cache_"} {
		if strings.Contains(w.Body.String(), fam) {
			t.Fatalf("single-tenant /metrics exposes %s* families", fam)
		}
	}
}

// TestIdleReclamation drives the idle reaper with a fake clock: a
// dataset unqueried past the TTL loses its search index and cache
// entries (counters survive), /readyz reports it "idle", the reclaim
// is counted in csm_dataset_idle_reclaims_total, and the next query
// revives it.
func TestIdleReclamation(t *testing.T) {
	clk := newFakeClock()
	s := newObsServer(t, Options{CacheSize: 16, IdleTTL: time.Minute, clock: clk.Now})
	putDataset(t, s, "batch", 3)

	// Build the dataset's warm state: a search index and a cache entry.
	if w := do(t, s, http.MethodGet, "/api/v1/datasets/batch/search?text=recursion", ""); w.Code != 200 {
		t.Fatalf("search: status %d\n%s", w.Code, w.Body.Bytes())
	}
	var e dsEnv
	decode(t, do(t, s, http.MethodGet, "/api/v1/datasets/batch/agreement", "").Body.Bytes(), &e)
	if e.Meta.Cache != "miss" {
		t.Fatalf("prime meta = %+v", e.Meta)
	}

	// Still warm: a sweep before the TTL reclaims nothing.
	if got := s.reclaimIdle(clk.Now()); len(got) != 0 {
		t.Fatalf("premature reclaim of %v", got)
	}

	clk.Advance(time.Minute + time.Second)
	if got := s.reclaimIdle(clk.Now()); len(got) != 1 || got[0] != "batch" {
		t.Fatalf("reclaimed %v, want [batch]", got)
	}

	// The search index is gone, the cache scope is empty, but the
	// scope's counters survived — the dataset exists, it just went cold.
	s.searcherMu.Lock()
	_, hasSearcher := s.searchers["batch"]
	s.searcherMu.Unlock()
	if hasSearcher {
		t.Fatal("search index survived reclamation")
	}
	sc := s.Cache().Stats().Scopes["batch"]
	if sc.Size != 0 || sc.Misses == 0 {
		t.Fatalf("reclaimed scope stats = %+v, want empty with history", sc)
	}

	// /readyz reports the dataset idle, and the Prometheus counter
	// records the reclaim.
	datasetStatus := func() map[string]string {
		t.Helper()
		re := do(t, s, http.MethodGet, "/readyz", "")
		var e env
		decode(t, re.Body.Bytes(), &e)
		var ready struct {
			Datasets map[string]DatasetReady `json:"datasets"`
		}
		decode(t, e.Data, &ready)
		out := map[string]string{}
		for id, st := range ready.Datasets {
			out[id] = st.Status
		}
		return out
	}
	if st := datasetStatus()["batch"]; st != "idle" {
		t.Fatalf("readyz after reclaim: batch = %q, want idle", st)
	}
	pm := do(t, s, http.MethodGet, "/metrics", "")
	if !strings.Contains(pm.Body.String(), `csm_dataset_idle_reclaims_total{dataset="batch"} 1`) {
		t.Fatal("/metrics missing the idle reclaim counter")
	}

	// A sweep right after reclaiming does not double-count.
	if got := s.reclaimIdle(clk.Now()); len(got) != 0 {
		t.Fatalf("idle dataset reclaimed twice: %v", got)
	}

	// The next query revives the dataset: recomputed (miss), "ready".
	decode(t, do(t, s, http.MethodGet, "/api/v1/datasets/batch/agreement", "").Body.Bytes(), &e)
	if e.Meta.Cache != "miss" {
		t.Fatalf("post-reclaim meta = %+v, want a recompute", e.Meta)
	}
	if st := datasetStatus()["batch"]; st != "ready" {
		t.Fatalf("readyz after revival: batch = %q, want ready", st)
	}

	// The default dataset is exempt however long it idles.
	do(t, s, http.MethodGet, "/api/v1/agreement", "")
	clk.Advance(time.Hour)
	for _, id := range s.reclaimIdle(clk.Now()) {
		if id == "default" {
			t.Fatal("default dataset reclaimed")
		}
	}

	// A dataset the server has never seen queried (data-dir loads)
	// starts its idle clock at first sighting, not at zero.
	putDataset(t, s, "stale2", 2)
	s.idleMu.Lock()
	delete(s.lastAccess, "stale2") // simulate a startup load, never queried
	s.idleMu.Unlock()
	if got := s.reclaimIdle(clk.Now()); len(got) != 0 {
		t.Fatalf("first sighting must only start the clock, reclaimed %v", got)
	}
	clk.Advance(time.Minute + time.Second)
	got := s.reclaimIdle(clk.Now())
	if len(got) != 1 || got[0] != "stale2" {
		t.Fatalf("second sweep reclaimed %v, want [stale2]", got)
	}
}

// TestMetricsDropDeletedDataset is the counter-hygiene check: after a
// dataset is deleted, no per-dataset family (cache, tenant, registry,
// idle) still reports it, and csm_datasets matches the catalog.
func TestMetricsDropDeletedDataset(t *testing.T) {
	s := newObsServer(t, Options{CacheSize: 12, MaxInFlight: 8})
	putDataset(t, s, "doomed", 3)
	putDataset(t, s, "keeper", 2)

	// Generate per-dataset cache and tenant samples for both.
	for _, ds := range []string{"doomed", "keeper"} {
		if w := do(t, s, http.MethodGet, "/api/v1/datasets/"+ds+"/agreement", ""); w.Code != 200 {
			t.Fatalf("query %s: status %d", ds, w.Code)
		}
	}
	body := do(t, s, http.MethodGet, "/metrics", "").Body.String()
	for _, fam := range []string{"csm_dataset_cache_size", "csm_tenant_quota", "csm_dataset_revision"} {
		if !strings.Contains(body, fam+`{dataset="doomed"}`) {
			t.Fatalf("pre-delete /metrics missing %s for doomed:\n%s", fam, body)
		}
	}

	if w := do(t, s, http.MethodDelete, "/api/v1/datasets/doomed", ""); w.Code != 200 {
		t.Fatalf("delete: status %d\n%s", w.Code, w.Body.Bytes())
	}

	body = do(t, s, http.MethodGet, "/metrics", "").Body.String()
	if strings.Contains(body, `dataset="doomed"`) {
		for _, line := range strings.Split(body, "\n") {
			if strings.Contains(line, "doomed") {
				t.Errorf("stale sample after delete: %s", line)
			}
		}
		t.FailNow()
	}
	want := fmt.Sprintf("csm_datasets %d", len(s.Datasets().IDs()))
	if !strings.Contains(body, want) {
		t.Fatalf("/metrics missing %q after delete", want)
	}
	// The survivors still report.
	if !strings.Contains(body, `csm_dataset_cache_size{dataset="keeper"}`) {
		t.Fatal("keeper's samples vanished with doomed's")
	}
}

// TestNoisyNeighborChaos is the isolation proof from the issue: tenant
// "noisy" floods at 4x its admission quota while every one of its
// in-flight requests is held open by the fault injector. Tenant
// "quiet", already warm, must keep a >=95% hit rate with zero 429s and
// zero evictions of its entries — and afterwards, noisy's cold fill
// and re-ingest churn must stay inside noisy's own cache partition.
func TestNoisyNeighborChaos(t *testing.T) {
	inj := faultinject.New(7)
	s := newObsServer(t, Options{CacheSize: 12, MaxInFlight: 24, Faults: inj})
	putDataset(t, s, "noisy", 3)
	putDataset(t, s, "quiet", 3)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Three tenants (default, noisy, quiet): fair shares are 8 in-flight
	// slots and 4 cache entries each.
	if q := s.limiter.Quota("noisy"); q != 8 {
		t.Fatalf("noisy quota = %d, want 8", q)
	}
	if b := s.Cache().ScopeBudget("quiet"); b != 4 {
		t.Fatalf("quiet cache budget = %d, want 4", b)
	}

	// Warm quiet's working set: two agreement thresholds.
	for _, th := range []int{1, 2} {
		e := getEnvelope(t, ts, fmt.Sprintf("/api/v1/datasets/quiet/agreement?threshold=%d", th), 200)
		if e.Meta.Cache != "miss" {
			t.Fatalf("warm threshold %d meta = %+v", th, e.Meta)
		}
	}

	// Every admitted noisy request now blocks on the hold channel. The
	// trailing slash keeps PUT /api/v1/datasets/noisy out of the rule.
	hold := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(hold)
		}
	}()
	inj.SetRules(faultinject.Rule{Match: "/api/v1/datasets/noisy/", Probability: 1, Hold: hold})

	// Flood: 32 concurrent requests, 4x noisy's quota of 8.
	const flood = 32
	type floodResult struct {
		status     int
		code       string
		retryAfter string
	}
	results := make(chan floodResult, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/api/v1/datasets/noisy/agreement?threshold=2")
			if err != nil {
				results <- floodResult{status: -1}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			fr := floodResult{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
			if resp.StatusCode != 200 {
				var e errEnv
				decode(t, body, &e)
				fr.code = e.Error.Code
			}
			results <- fr
		}()
	}

	// The flood settles: quota admitted-and-held, the rest shed as
	// quota rejections even though the global cap has 16 free slots.
	waitFor(t, "noisy at quota with the overflow shed", func() bool {
		_, tenants := s.limiter.Stats()
		n := tenants["noisy"]
		return n.InFlight == 8 && n.ShedQuota == flood-8
	})

	// Tenant isolation under fire: quiet's warm working set answers
	// every request from cache, with no shedding.
	hits := 0
	for i := 0; i < 50; i++ {
		resp, body := get(t, ts, fmt.Sprintf("/api/v1/datasets/quiet/agreement?threshold=%d", i%2+1))
		if resp.StatusCode != 200 {
			t.Fatalf("quiet request %d: status %d during flood\n%s", i, resp.StatusCode, body)
		}
		var e dsEnv
		decode(t, body, &e)
		if e.Meta.Cache == "hit" {
			hits++
		}
	}
	if hits < 48 { // >= 95% of 50
		t.Fatalf("quiet hit rate %d/50 during flood, want >= 48", hits)
	}
	_, tenants := s.limiter.Stats()
	if q := tenants["quiet"]; q.Shed != 0 {
		t.Fatalf("quiet was shed during noisy's flood: %+v", q)
	}
	if sc := s.Cache().Stats().Scopes["quiet"]; sc.Evictions != 0 || sc.Size != 2 {
		t.Fatalf("quiet scope disturbed by flood: %+v", sc)
	}

	// Release the held requests and account for the whole flood: 8
	// admitted 200s (collapsed by singleflight), 24 tenant_quota 429s
	// carrying Retry-After.
	released = true
	close(hold)
	wg.Wait()
	close(results)
	var ok200, shed429 int
	for fr := range results {
		switch fr.status {
		case 200:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
			if fr.code != "tenant_quota" {
				t.Fatalf("shed error code = %q, want tenant_quota", fr.code)
			}
			if fr.retryAfter == "" {
				t.Fatal("tenant_quota 429 without Retry-After")
			}
		default:
			t.Fatalf("flood request finished with %d", fr.status)
		}
	}
	if ok200 != 8 || shed429 != flood-8 {
		t.Fatalf("flood outcome = %d admitted / %d shed, want 8 / %d", ok200, shed429, flood-8)
	}

	// Noisy's cold fill stays inside its own partition: ten distinct
	// keys evict only noisy's entries, never quiet's.
	inj.SetRules()
	for th := 10; th < 20; th++ {
		getEnvelope(t, ts, fmt.Sprintf("/api/v1/datasets/noisy/agreement?threshold=%d", th), 200)
	}
	scopes := s.Cache().Stats().Scopes
	if n := scopes["noisy"]; n.Size > 4 || n.Evictions == 0 {
		t.Fatalf("noisy scope after cold fill = %+v, want <= budget with evictions", n)
	}
	if q := scopes["quiet"]; q.Evictions != 0 || q.Size != 2 {
		t.Fatalf("quiet scope after noisy cold fill = %+v", q)
	}

	// Re-ingest churn on noisy invalidates only noisy's entries; quiet
	// is still warm.
	putDataset(t, s, "noisy", 2)
	if n := s.Cache().Stats().Scopes["noisy"]; n.Size != 0 {
		t.Fatalf("noisy scope after re-ingest = %+v, want empty", n)
	}
	e := getEnvelope(t, ts, "/api/v1/datasets/quiet/agreement?threshold=1", 200)
	if e.Meta.Cache != "hit" {
		t.Fatalf("quiet went cold after noisy's re-ingest: %+v", e.Meta)
	}
}

// TestUnknownDatasetsLeaveNoState: requests naming datasets the
// registry does not hold, on analysis, course and search routes and in
// a batch, and a batch item naming an analysis the registry does not
// hold, answer with their usual errors and leave nothing behind: no
// /metrics series names them, the admission limiter holds only
// registered tenants, and the idle tracker records only registered
// IDs. Such requests count under the default tenant, so a server
// holding only the default dataset keeps its single-tenant exposition.
func TestUnknownDatasetsLeaveNoState(t *testing.T) {
	s := newObsServer(t, Options{IdleTTL: time.Minute})
	unknown := func(id string) string {
		return `{
  "error": {
    "code": "not_found",
    "message": "unknown dataset \"` + id + `\""
  }
}
`
	}
	for i := 0; i < 3; i++ {
		a, c, q := fmt.Sprintf("ghost-a%d", i), fmt.Sprintf("ghost-c%d", i), fmt.Sprintf("ghost-s%d", i)
		for _, tc := range []struct{ path, want string }{
			{"/api/v1/datasets/" + a + "/types", unknown(a)},
			{"/api/v1/datasets/" + a + "/cluster?group=cs1&k=2", unknown(a)},
			{"/api/v1/datasets/" + c + "/courses", unknown(c)},
			{"/api/v1/datasets/" + c + "/courses/hanover-cs225-wahl", unknown(c)},
			{"/api/v1/datasets/" + c + "/courses/hanover-cs225-wahl/audit", unknown(c)},
			{"/api/v1/datasets/" + q + "/search?prefix=AL", unknown(q)},
		} {
			if w := do(t, s, http.MethodGet, tc.path, ""); w.Code != http.StatusNotFound || w.Body.String() != tc.want {
				t.Errorf("GET %s: %d %s, want 404 %s", tc.path, w.Code, w.Body.Bytes(), tc.want)
			}
		}
	}
	for _, tc := range []struct{ path, want string }{
		// A parse error still comes before the dataset's.
		{"/api/v1/datasets/ghost-p/types?group=bogus", `{
  "error": {
    "code": "bad_request",
    "message": "unknown group \"bogus\""
  }
}
`},
		{"/api/v1/datasets/Ghost%20Name/types", `{
  "error": {
    "code": "bad_request",
    "message": "dataset: invalid dataset ID \"Ghost Name\": want lowercase letters, digits, '.', '_', '-', starting with a letter or digit"
  }
}
`},
	} {
		if w := do(t, s, http.MethodGet, tc.path, ""); w.Code != http.StatusBadRequest || w.Body.String() != tc.want {
			t.Errorf("GET %s: %d %s, want 400 %s", tc.path, w.Code, w.Body.Bytes(), tc.want)
		}
	}
	batch := `{"items":[{"analysis":"types","dataset":"ghost-b0","params":{"group":"cs1"}},` +
		`{"analysis":"agreement","dataset":"ghost-b1"},{"analysis":"nope","dataset":"ghost-b2"},` +
		`{"analysis":"ghost-n","dataset":"default"}]}`
	wantBatch := `{
  "data": [
    {
      "analysis": "types",
      "dataset": "ghost-b0",
      "error": {
        "status": 404,
        "code": "not_found",
        "message": "unknown dataset \"ghost-b0\""
      }
    },
    {
      "analysis": "agreement",
      "dataset": "ghost-b1",
      "error": {
        "status": 404,
        "code": "not_found",
        "message": "unknown dataset \"ghost-b1\""
      }
    },
    {
      "analysis": "nope",
      "dataset": "ghost-b2",
      "error": {
        "status": 404,
        "code": "not_found",
        "message": "unknown analysis \"nope\""
      }
    },
    {
      "analysis": "ghost-n",
      "dataset": "default",
      "error": {
        "status": 404,
        "code": "not_found",
        "message": "unknown analysis \"ghost-n\""
      }
    }
  ],
  "meta": {
    "items": 4,
    "workers": 4
  }
}
`
	if w := do(t, s, http.MethodPost, "/api/v1/batch", batch); w.Code != http.StatusOK || w.Body.String() != wantBatch {
		t.Errorf("POST /api/v1/batch: %d %s, want 200 %s", w.Code, w.Body.Bytes(), wantBatch)
	}

	for _, line := range strings.Split(do(t, s, http.MethodGet, "/metrics", "").Body.String(), "\n") {
		if strings.Contains(line, "ghost") || strings.Contains(line, "Ghost") || strings.HasPrefix(line, "csm_tenant_") {
			t.Errorf("/metrics: %s", line)
		}
	}
	registered := map[string]bool{}
	for _, id := range s.datasets.IDs() {
		registered[id] = true
	}
	_, tenants := s.limiter.Stats()
	for id := range tenants {
		if !registered[id] {
			t.Errorf("the admission limiter holds a tenant %q", id)
		}
	}
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	for id := range s.lastAccess {
		if !registered[id] {
			t.Errorf("the idle tracker records %q", id)
		}
	}
}
