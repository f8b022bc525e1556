package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// batchEnv decodes the POST /api/v1/batch envelope.
type batchEnv struct {
	Data []struct {
		Analysis string          `json:"analysis"`
		Key      string          `json:"key"`
		Cache    string          `json:"cache"`
		Data     json.RawMessage `json:"data"`
		Error    *struct {
			Status  int    `json:"status"`
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	} `json:"data"`
	Meta struct {
		Items   int `json:"items"`
		Workers int `json:"workers"`
	} `json:"meta"`
}

func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestBatchEndpoint: a mixed batch comes back in input order with
// per-item envelopes — data and cache meta for the good items, typed
// errors for the broken ones — and a second identical batch is all
// cache hits.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"items": [
		{"analysis": "types", "params": {"group": "cs1", "k": "3"}},
		{"analysis": "agreement", "params": {"group": "cs1", "threshold": "2"}},
		{"analysis": "bogus"},
		{"analysis": "types", "params": {"k": "banana"}},
		{"analysis": "anchors", "params": {"course": "vcu-cmsc256-duke"}}
	]}`
	resp, raw := postBatch(t, ts, body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d\n%s", resp.StatusCode, raw)
	}
	var e batchEnv
	decode(t, raw, &e)
	if len(e.Data) != 5 || e.Meta.Items != 5 || e.Meta.Workers < 1 {
		t.Fatalf("%d results, meta = %+v", len(e.Data), e.Meta)
	}

	if r := e.Data[0]; r.Error != nil || r.Key != "types|cs1|3" || r.Cache != "miss" || r.Data == nil {
		t.Fatalf("types item = %+v", r)
	}
	if r := e.Data[1]; r.Error != nil || r.Key != "agreement|cs1|2" || r.Data == nil {
		t.Fatalf("agreement item = %+v", r)
	}
	if r := e.Data[2]; r.Error == nil || r.Error.Status != 404 || r.Error.Code != "not_found" || r.Data != nil {
		t.Fatalf("bogus item = %+v", r)
	}
	if r := e.Data[3]; r.Error == nil || r.Error.Status != 400 || r.Error.Code != "bad_request" {
		t.Fatalf("bad-params item = %+v", r)
	}
	if r := e.Data[4]; r.Error != nil || r.Key != "anchors|vcu-cmsc256-duke" {
		t.Fatalf("anchors item = %+v", r)
	}

	// Replay: every good item is a hit now; the batch shares the same
	// cache the GET endpoints use.
	_, raw = postBatch(t, ts, body)
	decode(t, raw, &e)
	for _, i := range []int{0, 1, 4} {
		if e.Data[i].Cache != "hit" {
			t.Fatalf("replayed item %d cache = %q, want hit", i, e.Data[i].Cache)
		}
	}
	ge := getEnvelope(t, ts, "/api/v1/types?group=cs1&k=3", 200)
	if ge.Meta.Cache != "hit" {
		t.Fatalf("GET after batch = %+v, want shared cache hit", ge.Meta)
	}
}

// TestBatchValidation: malformed bodies, empty batches, and oversized
// batches are rejected up front with the JSON error envelope.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t)
	var big bytes.Buffer
	big.WriteString(`{"items": [`)
	for i := 0; i < 65; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		fmt.Fprintf(&big, `{"analysis": "types"}`)
	}
	big.WriteString(`]}`)

	cases := []struct {
		name, body string
	}{
		{"malformed json", `{"items": [`},
		{"unknown field", `{"itemz": []}`},
		{"empty items", `{"items": []}`},
		{"no items", `{}`},
		{"oversized", big.String()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postBatch(t, ts, tc.body)
			if resp.StatusCode != 400 {
				t.Fatalf("status %d\n%s", resp.StatusCode, raw)
			}
			var e errEnv
			decode(t, raw, &e)
			if e.Error.Code != "bad_request" || e.Error.Message == "" {
				t.Fatalf("error envelope = %+v", e)
			}
		})
	}

	// The batch route is POST-only: GET gets a 405 pointing at POST.
	resp, raw := get(t, ts, "/api/v1/batch")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /api/v1/batch status %d\n%s", resp.StatusCode, raw)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}

// TestBatchWorkersOption: the configured pool size is reported in the
// batch meta.
func TestBatchWorkersOption(t *testing.T) {
	s, err := NewWithOptions(Options{BatchWorkers: 2, disableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	_, raw := postBatch(t, ts, `{"items": [{"analysis": "agreement", "params": {"group": "cs1"}}]}`)
	var e batchEnv
	decode(t, raw, &e)
	if e.Meta.Workers != 2 {
		t.Fatalf("meta = %+v, want workers 2", e.Meta)
	}
}
