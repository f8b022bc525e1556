package obs

import (
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestWriteExpositionGolden(t *testing.T) {
	families := []Family{
		{
			Name: "csm_requests_total", Help: "Requests by route.", Type: Counter,
			Samples: []Sample{
				{Labels: []Label{{"route", "GET /api/v1/types"}, {"status", "200"}}, Value: 12},
				{Labels: []Label{{"route", "GET /api/v1/types"}, {"status", "400"}}, Value: 1},
			},
		},
		{
			Name: "csm_in_flight", Help: "In-flight requests.", Type: Gauge,
			Samples: []Sample{{Value: 3}},
		},
		{Name: "csm_empty", Help: "Skipped entirely.", Type: Counter},
		{
			Name: "csm_stage_duration_seconds", Help: "Stage latency.", Type: Histogram,
			Samples: HistogramSamples(
				[]Label{{"analysis", "types"}, {"stage", "compute"}},
				[]float64{0.001, 0.01}, []uint64{2, 1, 1}, 0.0145, 4),
		},
		{
			Name: "csm_escapes", Help: `Help with \ backslash and "quotes".`, Type: Gauge,
			Samples: []Sample{{Labels: []Label{{"k", "a\"b\\c\nd"}}, Value: 1}},
		},
	}
	var b strings.Builder
	if err := WriteExposition(&b, families); err != nil {
		t.Fatal(err)
	}
	want := `# HELP csm_requests_total Requests by route.
# TYPE csm_requests_total counter
csm_requests_total{route="GET /api/v1/types",status="200"} 12
csm_requests_total{route="GET /api/v1/types",status="400"} 1
# HELP csm_in_flight In-flight requests.
# TYPE csm_in_flight gauge
csm_in_flight 3
# HELP csm_stage_duration_seconds Stage latency.
# TYPE csm_stage_duration_seconds histogram
csm_stage_duration_seconds_bucket{analysis="types",stage="compute",le="0.001"} 2
csm_stage_duration_seconds_bucket{analysis="types",stage="compute",le="0.01"} 3
csm_stage_duration_seconds_bucket{analysis="types",stage="compute",le="+Inf"} 4
csm_stage_duration_seconds_sum{analysis="types",stage="compute"} 0.0145
csm_stage_duration_seconds_count{analysis="types",stage="compute"} 4
# HELP csm_escapes Help with \\ backslash and "quotes".
# TYPE csm_escapes gauge
csm_escapes{k="a\"b\\c\nd"} 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWriteExpositionAllocs renders ten families of eight samples with
// one label each and with four: escaping a label value that needs no
// escape allocates nothing, so the 240 extra labels may cost only a
// few more growths of the output buffer. Building a strings.Replacer
// per label, as the writer once did, made them cost 1,684 more
// allocations (2,434 against 750).
func TestWriteExpositionAllocs(t *testing.T) {
	allocs := func(labels int) float64 {
		var families []Family
		for f := 0; f < 10; f++ {
			var samples []Sample
			for s := 0; s < 8; s++ {
				var ls []Label
				for l := 0; l < labels; l++ {
					ls = append(ls, Label{"l" + strconv.Itoa(l), "value " + strconv.Itoa(s)})
				}
				samples = append(samples, Sample{Labels: ls, Value: float64(s)})
			}
			families = append(families, Family{Name: "csm_f" + strconv.Itoa(f) + "_total", Help: "Help text.", Type: Counter, Samples: samples})
		}
		return testing.AllocsPerRun(20, func() {
			if err := WriteExposition(io.Discard, families); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, four := allocs(1), allocs(4); four > one+8 {
		t.Fatalf("WriteExposition makes %v allocations with four labels a sample and %v with one", four, one)
	}
}

func TestValidateExpositionCatchesGarbage(t *testing.T) {
	valid := "# HELP a b\n# TYPE a counter\na 1\na{x=\"y\"} 2.5\na{x=\"y\",z=\"w\"} +Inf\n"
	if err := ValidateExposition(valid); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	for _, bad := range []string{
		"a{x=y} 1\n",         // unquoted label value
		"a 1 2 3\n",          // trailing garbage
		"{x=\"y\"} 1\n",      // no metric name
		"a{x=\"y\"\n",        // unterminated
		"# TUPE a counter\n", // bad comment keyword
	} {
		if err := ValidateExposition(bad); err == nil {
			t.Fatalf("garbage accepted: %q", bad)
		}
	}
}

func TestFormatValueEdges(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{0.25, "0.25"},
		{1e9, "1e+09"},
	} {
		if got := formatValue(tc.v); got != tc.want {
			t.Fatalf("formatValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Fatalf("formatValue(NaN) = %q", got)
	}
}

// TestHistObserveAndClone: a value equal to a bound counts in that
// bound's bucket (le semantics), one past the last bound in +Inf, and
// a clone shares no counts with its source.
func TestHistObserveAndClone(t *testing.T) {
	h := NewHist([]float64{0.001, 0.01})
	for _, v := range []float64{0.0005, 0.001, 0.002, 0.01, 3} {
		h.Observe(v)
	}
	if got, want := h.Counts, []uint64{2, 2, 1}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("counts = %v, want %v", got, want)
	}
	if h.Count != 5 || math.Abs(h.Sum-3.0135) > 1e-12 {
		t.Fatalf("count = %d sum = %v, want 5 and 3.0135", h.Count, h.Sum)
	}
	c := h.Clone()
	c.Counts[0] = 99
	c.Observe(0)
	if h.Counts[0] != 2 || h.Count != 5 {
		t.Fatalf("clone aliases its source: %+v", h)
	}
}
