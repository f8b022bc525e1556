package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// env is the generic decoded v1 envelope.
type env struct {
	Data json.RawMessage `json:"data"`
	Meta struct {
		Total  int    `json:"total"`
		Limit  int    `json:"limit"`
		Offset int    `json:"offset"`
		Cache  string `json:"cache"`
		Key    string `json:"key"`
	} `json:"meta"`
}

type errEnv struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func decode(t *testing.T, data []byte, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
}

// getEnvelope fetches path and decodes the success envelope, failing on
// anything but wantStatus.
func getEnvelope(t *testing.T, ts *httptest.Server, path string, wantStatus int) env {
	t.Helper()
	resp, body := get(t, ts, path)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d\n%s", path, resp.StatusCode, wantStatus, body)
	}
	var e env
	decode(t, body, &e)
	if e.Data == nil {
		t.Fatalf("GET %s: no data field in envelope\n%s", path, body)
	}
	return e
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	e := getEnvelope(t, ts, "/healthz", 200)
	var out struct {
		Status    string `json:"status"`
		Courses   int    `json:"courses"`
		Materials int    `json:"materials"`
	}
	decode(t, e.Data, &out)
	if out.Status != "ok" || out.Courses != 20 || out.Materials < 400 {
		t.Fatalf("health = %+v", out)
	}
}

func TestListCoursesPagination(t *testing.T) {
	_, ts := newTestServer(t)
	e := getEnvelope(t, ts, "/api/v1/courses", 200)
	var out []struct {
		ID    string `json:"id"`
		Group string `json:"group"`
		Tags  int    `json:"tags"`
	}
	decode(t, e.Data, &out)
	if len(out) != 20 || e.Meta.Total != 20 || e.Meta.Limit != 20 || e.Meta.Offset != 0 {
		t.Fatalf("%d courses, meta = %+v", len(out), e.Meta)
	}
	if out[0].ID != "uncc-2214-krs" || out[0].Tags == 0 {
		t.Fatalf("first course = %+v", out[0])
	}

	// Pagination edges: a window, the tail, and past-the-end.
	e = getEnvelope(t, ts, "/api/v1/courses?limit=5&offset=18", 200)
	decode(t, e.Data, &out)
	if len(out) != 2 || e.Meta.Total != 20 || e.Meta.Limit != 5 || e.Meta.Offset != 18 {
		t.Fatalf("tail page: %d courses, meta = %+v", len(out), e.Meta)
	}
	e = getEnvelope(t, ts, "/api/v1/courses?limit=5&offset=100", 200)
	if string(e.Data) != "[]" {
		t.Fatalf("past-the-end page data = %s, want []", e.Data)
	}
	first := getEnvelope(t, ts, "/api/v1/courses?limit=1", 200)
	second := getEnvelope(t, ts, "/api/v1/courses?limit=1&offset=1", 200)
	if string(first.Data) == string(second.Data) {
		t.Fatal("offset=1 returned the same course as offset=0")
	}
}

// TestBadQueryParams: malformed limit/offset/k/threshold are 400s with
// the error envelope, not silently defaulted.
func TestBadQueryParams(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, path string
	}{
		{"courses bad limit", "/api/v1/courses?limit=banana"},
		{"courses zero limit", "/api/v1/courses?limit=0"},
		{"courses negative offset", "/api/v1/courses?offset=-1"},
		{"courses float limit", "/api/v1/courses?limit=1.5"},
		{"search bad limit", "/api/v1/search?prefix=AL/&limit=nope"},
		{"search bad offset", "/api/v1/search?prefix=AL/&offset=x"},
		{"types bad k", "/api/v1/types?group=cs1&k=banana"},
		{"types zero k", "/api/v1/types?group=cs1&k=0"},
		{"agreement bad threshold", "/api/v1/agreement?group=cs1&threshold=banana"},
		{"agreement zero threshold", "/api/v1/agreement?group=cs1&threshold=0"},
		{"cluster zero k", "/api/v1/cluster?group=all&k=0"},
		{"pdcmaterials bad limit", "/api/v1/courses/vcu-cmsc256-duke/pdcmaterials?limit=-3"},
		{"types bad group", "/api/v1/types?group=bogus"},
		{"agreement bad group", "/api/v1/agreement?group=bogus"},
		{"cluster bad group", "/api/v1/cluster?group=bogus"},
		{"search empty query", "/api/v1/search"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, ts, tc.path)
			if resp.StatusCode != 400 {
				t.Fatalf("status %d, want 400\n%s", resp.StatusCode, body)
			}
			var e errEnv
			decode(t, body, &e)
			if e.Error.Code != "bad_request" || e.Error.Message == "" {
				t.Fatalf("error envelope = %+v", e)
			}
		})
	}
}

func TestCourseDetailAndViews(t *testing.T) {
	_, ts := newTestServer(t)
	e := getEnvelope(t, ts, "/api/v1/courses/vcu-cmsc256-duke", 200)
	var detail struct {
		Course struct {
			ID string `json:"id"`
		} `json:"course"`
		Tags []string `json:"tags"`
	}
	decode(t, e.Data, &detail)
	if detail.Course.ID != "vcu-cmsc256-duke" || len(detail.Tags) < 50 {
		t.Fatalf("detail = %+v (%d tags)", detail.Course, len(detail.Tags))
	}

	e = getEnvelope(t, ts, "/api/v1/courses/vcu-cmsc256-duke/anchors", 200)
	var recs []struct {
		Rule  string  `json:"rule"`
		Score float64 `json:"score"`
	}
	decode(t, e.Data, &recs)
	found := false
	for _, r := range recs {
		if r.Rule == "thread-safe-types" {
			found = true
		}
	}
	if !found {
		t.Fatalf("thread-safe-types not in VCU anchors: %+v", recs)
	}

	e = getEnvelope(t, ts, "/api/v1/courses/vcu-cmsc256-duke/audit", 200)
	var aud struct {
		Core1 float64 `json:"core1_coverage"`
		Units []struct {
			Unit string `json:"unit"`
		} `json:"units"`
	}
	decode(t, e.Data, &aud)
	if aud.Core1 <= 0 || len(aud.Units) == 0 {
		t.Fatalf("audit = %+v", aud)
	}

	e = getEnvelope(t, ts, "/api/v1/courses/vcu-cmsc256-duke/pdcmaterials?limit=3", 200)
	var pdcm []struct {
		ID string `json:"id"`
	}
	decode(t, e.Data, &pdcm)
	if len(pdcm) == 0 || len(pdcm) > 3 {
		t.Fatalf("pdcmaterials = %d entries", len(pdcm))
	}

	e = getEnvelope(t, ts, "/api/v1/courses/vcu-cmsc256-duke/materials", 200)
	var ms []struct {
		ID string `json:"id"`
	}
	decode(t, e.Data, &ms)
	if len(ms) < 10 || e.Meta.Total != len(ms) {
		t.Fatalf("materials = %d, meta = %+v", len(ms), e.Meta)
	}
}

func TestNotFoundJSON(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, path string
	}{
		{"unknown course", "/api/v1/courses/ghost"},
		{"unknown view", "/api/v1/courses/vcu-cmsc256-duke/bogus"},
		{"unknown figure", "/api/v1/figures/99"},
		{"unknown endpoint", "/api/v1/bogus"},
		{"unregistered path", "/nope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, ts, tc.path)
			if resp.StatusCode != 404 {
				t.Fatalf("status %d, want 404\n%s", resp.StatusCode, body)
			}
			var e errEnv
			decode(t, body, &e)
			if e.Error.Code != "not_found" || e.Error.Message == "" {
				t.Fatalf("error envelope = %+v", e)
			}
		})
	}
}

func TestSearchPagination(t *testing.T) {
	_, ts := newTestServer(t)
	e := getEnvelope(t, ts, "/api/v1/search?prefix=AL/basic-analysis/&limit=5", 200)
	var hits []struct {
		ID    string  `json:"id"`
		Score float64 `json:"score"`
	}
	decode(t, e.Data, &hits)
	if len(hits) == 0 || len(hits) > 5 {
		t.Fatalf("hits = %d", len(hits))
	}
	if e.Meta.Total < len(hits) || e.Meta.Limit != 5 {
		t.Fatalf("meta = %+v", e.Meta)
	}
	// Offset walks the ranked list: page 2 starts where page 1 ended.
	all := getEnvelope(t, ts, "/api/v1/search?prefix=AL/basic-analysis/&limit=4&offset=0", 200)
	var page1 []struct {
		ID string `json:"id"`
	}
	decode(t, all.Data, &page1)
	next := getEnvelope(t, ts, "/api/v1/search?prefix=AL/basic-analysis/&limit=4&offset=2", 200)
	var page2 []struct {
		ID string `json:"id"`
	}
	decode(t, next.Data, &page2)
	if len(page1) < 4 || len(page2) < 1 || page1[2].ID != page2[0].ID {
		t.Fatalf("offset window mismatch: page1=%+v page2=%+v", page1, page2)
	}
	// Past-the-end offsets return an empty array, never null.
	e = getEnvelope(t, ts, "/api/v1/search?prefix=AL/basic-analysis/&offset=100000", 200)
	if string(e.Data) != "[]" {
		t.Fatalf("past-the-end data = %s, want []", e.Data)
	}
}

func TestAgreementEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	e := getEnvelope(t, ts, "/api/v1/agreement?group=CS1&threshold=4", 200)
	var out struct {
		Tags    int            `json:"tags"`
		AtLeast map[string]int `json:"at_least"`
		KASpan  []string       `json:"ka_span"`
	}
	decode(t, e.Data, &out)
	if out.Tags < 200 {
		t.Fatalf("CS1 tags = %d", out.Tags)
	}
	if len(out.KASpan) != 1 || out.KASpan[0] != "SDF" {
		t.Fatalf("KA span at threshold 4 = %v, want [SDF]", out.KASpan)
	}
	if e.Meta.Cache != "miss" {
		t.Fatalf("first request cache = %q", e.Meta.Cache)
	}
	e = getEnvelope(t, ts, "/api/v1/agreement?group=CS1&threshold=4", 200)
	if e.Meta.Cache != "hit" {
		t.Fatalf("second request cache = %q", e.Meta.Cache)
	}
}

func TestTypesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	e := getEnvelope(t, ts, "/api/v1/types?group=cs1&k=3", 200)
	var out struct {
		K       int `json:"k"`
		Courses []struct {
			Course   string `json:"course"`
			Dominant int    `json:"dominant_type"`
		} `json:"courses"`
		Types []struct {
			Label string `json:"label"`
		} `json:"types"`
	}
	decode(t, e.Data, &out)
	if out.K != 3 || len(out.Courses) != 6 || len(out.Types) != 3 {
		t.Fatalf("types = %+v", out)
	}
	// Oversized k is a factorization error surfaced as 400.
	resp, body := get(t, ts, "/api/v1/types?group=cs1&k=99")
	if resp.StatusCode != 400 {
		t.Fatalf("oversized k status %d\n%s", resp.StatusCode, body)
	}
	var ee errEnv
	decode(t, body, &ee)
	if ee.Error.Code != "bad_request" {
		t.Fatalf("oversized k error = %+v", ee)
	}
}

func TestFigureEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	e := getEnvelope(t, ts, "/api/v1/figures/3a", 200)
	var out struct {
		ID   string   `json:"id"`
		Text string   `json:"text"`
		SVGs []string `json:"svgs"`
	}
	decode(t, e.Data, &out)
	if !strings.Contains(out.Text, "CS1: 6 courses") || len(out.SVGs) != 1 {
		t.Fatalf("figure = %+v", out)
	}
	// SVG served directly, from the cached artifact.
	resp, svg := get(t, ts, "/api/v1/figures/3a?svg="+out.SVGs[0])
	if resp.StatusCode != 200 {
		t.Fatalf("svg status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.HasPrefix(string(svg), "<svg") {
		t.Fatal("not an SVG body")
	}
	resp, _ = get(t, ts, "/api/v1/figures/3a?svg=nope.svg")
	if resp.StatusCode != 404 {
		t.Fatalf("unknown svg status %d", resp.StatusCode)
	}
}

func TestClusterEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	e := getEnvelope(t, ts, "/api/v1/cluster?group=all&k=6", 200)
	var out struct {
		K        int        `json:"k"`
		Clusters [][]string `json:"clusters"`
	}
	decode(t, e.Data, &out)
	if out.K != 6 || len(out.Clusters) != 6 {
		t.Fatalf("cluster response = %+v", out)
	}
	total := 0
	for _, cl := range out.Clusters {
		total += len(cl)
	}
	if total != 20 {
		t.Fatalf("clusters cover %d courses", total)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/api/v1/courses", "/api/v1/types", "/healthz"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s status %d", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Fatalf("POST %s Allow = %q", path, allow)
		}
		var e errEnv
		decode(t, body, &e)
		if e.Error.Code != "method_not_allowed" {
			t.Fatalf("POST %s error envelope = %+v", path, e)
		}
	}
}

// TestRemovedPathsNotFound: the API lives under /api/v1/ only and its
// metrics under /metrics only; a pre-v1 /api/... path and the old
// /debug/metrics JSON view answer the JSON 404 of any unknown path,
// and every unknown path, /api/v1/... ones included, is metered under
// route="(unmatched)".
func TestRemovedPathsNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	paths := []string{"/api/courses", "/api/types?group=cs1&k=3", "/api/figures/3a", "/debug/metrics", "/api/v1/nope"}
	for _, path := range paths {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status %d, want 404\n%s", path, resp.StatusCode, body)
		}
		var e errEnv
		decode(t, body, &e)
		if e.Error.Code != "not_found" {
			t.Fatalf("GET %s error envelope = %+v", path, e)
		}
	}
	if v := metricValue(t, ts, `csm_http_requests_total{route="(unmatched)",status="404"}`); v != strconv.Itoa(len(paths)) {
		t.Fatalf("unmatched 404s = %s, want %d", v, len(paths))
	}
}

// TestPanicReturns500Envelope: a handler panic becomes a JSON 500, not
// a dropped connection.
func TestPanicReturns500Envelope(t *testing.T) {
	s, ts := newTestServer(t)
	replaceCompute(t, s, "types", func(context.Context, *materials.Repository, engine.Params) (interface{}, error) {
		panic("injected analysis panic")
	})
	resp, body := get(t, ts, "/api/v1/types?group=cs1&k=2")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d\n%s", resp.StatusCode, body)
	}
	var e errEnv
	decode(t, body, &e)
	if e.Error.Code != "internal" || e.Error.Message == "" {
		t.Fatalf("error envelope = %+v", e)
	}
	// The server is still alive afterwards.
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz after panic: %d", resp.StatusCode)
	}
}
