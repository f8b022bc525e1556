// Apiclient: drive the v1 HTTP API end-to-end against an in-process
// httptest.Server — paginated course listing, a course's anchor
// recommendations, the cached NNMF typing (watch meta.cache flip from
// miss to hit), a parallel analysis batch (POST /api/v1/batch), and
// the Prometheus text of GET /metrics.
//
// The server is started with fault injection enabled, and every call
// goes through a retrying client (exponential backoff with jitter,
// honouring Retry-After on 429/503), so the demo also shows the
// resilience ladder under injected compute faults: an answer the cache
// holds is still served as a hit, and one it does not hold fails with
// an error envelope.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"csmaterials/internal/resilience/faultinject"
	"csmaterials/internal/server"
)

// client retries transient failures: 429 (shed) and 503 (circuit open
// or unready) are retried with exponential backoff plus jitter, and a
// Retry-After header, when present, overrides the computed backoff.
type client struct {
	base     string
	http     *http.Client
	retries  int
	backoff  time.Duration // first-retry backoff; doubles per attempt
	maxSleep time.Duration
	rng      *rand.Rand
	verbose  bool
}

func newClient(base string) *client {
	return &client{
		base:     base,
		http:     &http.Client{Timeout: 30 * time.Second},
		retries:  5,
		backoff:  50 * time.Millisecond,
		maxSleep: 2 * time.Second,
		rng:      rand.New(rand.NewSource(7)),
		verbose:  true,
	}
}

func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// sleepFor picks the delay before retry attempt (1-based): the
// server's Retry-After if it sent one, otherwise exponential backoff
// with full jitter.
func (c *client) sleepFor(attempt int, resp *http.Response) time.Duration {
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	d := c.backoff << (attempt - 1)
	if d > c.maxSleep {
		d = c.maxSleep
	}
	return time.Duration(c.rng.Int63n(int64(d) + 1))
}

// get fetches path, retrying shed/unavailable responses. It returns
// the final response's status, headers, and body.
func (c *client) get(path string) (*http.Response, []byte, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.http.Get(c.base + path)
		if err != nil {
			return nil, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		if !retryable(resp.StatusCode) || attempt == c.retries {
			return resp, body, nil
		}
		sleep := c.sleepFor(attempt+1, resp)
		if c.verbose {
			fmt.Printf("  [retry] GET %s -> %s, backing off %s\n", path, resp.Status, sleep.Round(time.Millisecond))
		}
		time.Sleep(sleep)
	}
}

// envelope mirrors the v1 {"data","meta"} response shape.
type envelope struct {
	Data json.RawMessage `json:"data"`
	Meta struct {
		Total  int    `json:"total"`
		Limit  int    `json:"limit"`
		Offset int    `json:"offset"`
		Cache  string `json:"cache"`
		Key    string `json:"key"`
	} `json:"meta"`
}

func (c *client) getEnvelope(path string) (envelope, error) {
	var e envelope
	resp, body, err := c.get(path)
	if err != nil {
		return e, err
	}
	if resp.StatusCode != http.StatusOK {
		return e, fmt.Errorf("GET %s: %s\n%s", path, resp.Status, body)
	}
	return e, json.Unmarshal(body, &e)
}

func main() {
	// Inject faults: every agreement compute fails while these rules
	// are in force. The seed makes the run reproducible.
	faults := faultinject.New(42)
	s, err := server.NewWithOptions(server.Options{Faults: faults})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := newClient(ts.URL)
	fmt.Printf("in-process API at %s\n\n", ts.URL)

	// 0. Readiness: the client waits for /readyz before real traffic
	// (503 while the dataset loads and the warmup analysis runs).
	for {
		resp, _, err := c.get("/readyz")
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			fmt.Println("server is ready")
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// 1. Paginated course listing.
	e, err := c.getEnvelope("/api/v1/courses?limit=5&offset=0")
	if err != nil {
		log.Fatal(err)
	}
	var courses []struct {
		ID    string `json:"id"`
		Name  string `json:"name"`
		Group string `json:"group"`
	}
	if err := json.Unmarshal(e.Data, &courses); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncourses page 1 (total %d, showing %d):\n", e.Meta.Total, len(courses))
	for _, c := range courses {
		fmt.Printf("  %-22s %-6s %s\n", c.ID, c.Group, c.Name)
	}

	// 2. Anchor-point recommendations for one course (§5.2).
	e, err = c.getEnvelope("/api/v1/courses/" + courses[0].ID + "/anchors")
	if err != nil {
		log.Fatal(err)
	}
	var anchors []struct {
		Rule  string  `json:"rule"`
		Title string  `json:"title"`
		Score float64 `json:"score"`
	}
	if err := json.Unmarshal(e.Data, &anchors); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop anchor recommendations for %s:\n", courses[0].ID)
	for i, a := range anchors {
		if i == 3 {
			break
		}
		fmt.Printf("  %.2f  %-24s %s\n", a.Score, a.Rule, a.Title)
	}

	// 3. The cached NNMF typing: the first request computes, the
	// second is served from the LRU cache.
	for i := 1; i <= 2; i++ {
		e, err = c.getEnvelope("/api/v1/types?group=cs1&k=3")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntypes request %d: cache=%s key=%s\n", i, e.Meta.Cache, e.Meta.Key)
	}
	var typing struct {
		K     int `json:"k"`
		Types []struct {
			Label string `json:"label"`
		} `json:"types"`
	}
	if err := json.Unmarshal(e.Data, &typing); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CS1 splits into %d types:", typing.K)
	for _, t := range typing.Types {
		fmt.Printf(" %q", t.Label)
	}
	fmt.Println()

	// 4. One round trip, many analyses: POST /api/v1/batch runs the
	// items on the server's worker pool with the same per-item cache
	// and breaker semantics as the GET endpoints, and answers in input
	// order. The types item was cached by step 3 — watch it come back
	// as a hit while the others compute; the bogus item fails alone.
	batchBody := `{"items": [
		{"analysis": "types",     "params": {"group": "cs1", "k": "3"}},
		{"analysis": "cluster",   "params": {"group": "all", "k": "4"}},
		{"analysis": "agreement", "params": {"group": "pdc"}},
		{"analysis": "bogus"}
	]}`
	resp, err := http.Post(ts.URL+"/api/v1/batch", "application/json", strings.NewReader(batchBody))
	if err != nil {
		log.Fatal(err)
	}
	var batch struct {
		Data []struct {
			Analysis string `json:"analysis"`
			Key      string `json:"key"`
			Cache    string `json:"cache"`
			Error    *struct {
				Code string `json:"code"`
			} `json:"error"`
		} `json:"data"`
		Meta struct {
			Items   int `json:"items"`
			Workers int `json:"workers"`
		} `json:"meta"`
	}
	err = json.NewDecoder(resp.Body).Decode(&batch)
	_ = resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch of %d items on %d workers:\n", batch.Meta.Items, batch.Meta.Workers)
	for _, item := range batch.Data {
		if item.Error != nil {
			fmt.Printf("  %-10s error=%s\n", item.Analysis, item.Error.Code)
			continue
		}
		fmt.Printf("  %-10s key=%-16s cache=%s\n", item.Analysis, item.Key, item.Cache)
	}

	// 5. Compute faults: prime one agreement key, then make every
	// agreement compute fail. The held key is still a hit and runs no
	// compute; a key the cache does not hold gets the error envelope.
	if _, err := c.getEnvelope("/api/v1/agreement?group=CS1&threshold=4"); err != nil {
		log.Fatal(err)
	}
	faults.SetRules(faultinject.Rule{Match: "compute/agreement", Probability: 1, Status: 500})
	before := s.Engine().Stats().Analyses["agreement"].Computes
	e, err = c.getEnvelope("/api/v1/agreement?group=CS1&threshold=4")
	if err != nil {
		log.Fatal(err)
	}
	computes := s.Engine().Stats().Analyses["agreement"].Computes - before
	fmt.Printf("\nagreement with compute faults injected, held key: cache=%s computes=%d\n", e.Meta.Cache, computes)
	if e.Meta.Cache != "hit" || computes != 0 {
		log.Fatal("a held answer must be served as a hit without computing")
	}
	resp, body, err := c.get("/api/v1/agreement?group=DS&threshold=4")
	if err != nil {
		log.Fatal(err)
	}
	var failed struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &failed); err != nil || failed.Error.Code == "" {
		log.Fatalf("unheld key under compute faults: %s\n%s", resp.Status, body)
	}
	fmt.Printf("agreement with compute faults injected, unheld key: %s error=%s\n", resp.Status, failed.Error.Code)
	faults.SetRules()

	// 6. Observability: every number the server keeps is a series on
	// GET /metrics. Print the request, cache, shedder and breaker
	// series; the two types reads of step 3 must be there.
	_, body, err = c.get("/metrics")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n/metrics:")
	typesOK := ""
	for _, line := range strings.Split(string(body), "\n") {
		for _, prefix := range []string{"csm_http_requests_total", "csm_cache_", "csm_shed_", "csm_breaker_state", "csm_breaker_failures_total"} {
			if strings.HasPrefix(line, prefix) {
				fmt.Println("  " + line)
				break
			}
		}
		if v, ok := strings.CutPrefix(line, `csm_http_requests_total{route="GET /api/v1/types",status="200"} `); ok {
			typesOK = v
		}
	}
	if typesOK != "2" {
		log.Fatalf("csm_http_requests_total{route=\"GET /api/v1/types\",status=\"200\"} = %q, want 2", typesOK)
	}
}
