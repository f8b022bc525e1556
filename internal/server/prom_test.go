package server

import (
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// histSeries is one histogram series scraped from /metrics: its bucket
// le values and cumulative counts in exposition order, and its _count.
type histSeries struct {
	les    []string
	counts []float64
	count  float64
}

// scrapeHistograms groups the family's _bucket lines by their label set
// without le, keeping only the series whose labels contain selector,
// and attaches each series' _count.
func scrapeHistograms(t *testing.T, text, family, selector string) map[string]*histSeries {
	t.Helper()
	out := map[string]*histSeries{}
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family+"_bucket{")
		if !ok {
			continue
		}
		labels, value, ok := strings.Cut(rest, "} ")
		if !ok {
			t.Fatalf("malformed bucket line %q", line)
		}
		i := strings.LastIndex(labels, `,le="`)
		if i < 0 {
			t.Fatalf("bucket line without le: %q", line)
		}
		key := labels[:i]
		if !strings.Contains(key, selector) {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		hs := out[key]
		if hs == nil {
			hs = &histSeries{}
			out[key] = hs
		}
		hs.les = append(hs.les, strings.TrimSuffix(labels[i+len(`,le="`):], `"`))
		hs.counts = append(hs.counts, v)
	}
	for key, hs := range out {
		prefix := family + "_count{" + key + "} "
		found := false
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				n, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("count line %q: %v", line, err)
				}
				hs.count, found = n, true
			}
		}
		if !found {
			t.Fatalf("%s{%s} has buckets but no _count", family, key)
		}
	}
	return out
}

// checkHistogram holds one series to its bucket layout: exactly the
// wanted le values in order, cumulative counts that never decrease, and
// a +Inf bucket equal to _count.
func checkHistogram(t *testing.T, name string, hs *histSeries, les []string) {
	t.Helper()
	if !reflect.DeepEqual(hs.les, les) {
		t.Errorf("%s le = %v, want %v", name, hs.les, les)
		return
	}
	for i := 1; i < len(hs.counts); i++ {
		if hs.counts[i] < hs.counts[i-1] {
			t.Errorf("%s bucket le=%s (%v) below le=%s (%v)", name, hs.les[i], hs.counts[i], hs.les[i-1], hs.counts[i-1])
		}
	}
	if inf := hs.counts[len(hs.counts)-1]; inf != hs.count { // lint:exact — both are integer counts
		t.Errorf("%s +Inf bucket %v != _count %v", name, inf, hs.count)
	}
}

// TestPromHistogramBounds pins the bucket layout of both histogram
// families /metrics serves: the per-route request latency and the
// per-stage latency aggregated from traces.
func TestPromHistogramBounds(t *testing.T) {
	s := newObsServer(t, Options{})
	do(t, s, http.MethodGet, "/api/v1/types", "")
	do(t, s, http.MethodGet, "/api/v1/types", "")
	text := do(t, s, http.MethodGet, "/metrics", "").Body.String()

	routes := scrapeHistograms(t, text, "csm_http_request_duration_seconds", `route="GET /api/v1/types"`)
	if len(routes) != 1 {
		t.Fatalf("route series = %d, want 1\n%s", len(routes), text)
	}
	for key, hs := range routes {
		checkHistogram(t, key, hs, []string{
			"0.001", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "+Inf",
		})
		if hs.count != 2 { // lint:exact — an integer count
			t.Errorf("%s _count = %v, want 2", key, hs.count)
		}
	}

	stages := scrapeHistograms(t, text, "csm_stage_duration_seconds", `analysis="types"`)
	if len(stages) == 0 {
		t.Fatalf("no stage series for analysis=types\n%s", text)
	}
	for key, hs := range stages {
		checkHistogram(t, key, hs, []string{
			"0.0001", "0.00025", "0.0005", "0.001", "0.0025", "0.005", "0.01",
			"0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "+Inf",
		})
	}
}
