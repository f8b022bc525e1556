package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type of the Prometheus text
// exposition format this package writes.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricType is a Prometheus metric family type.
type MetricType string

// The exposition types this package emits.
const (
	Counter   MetricType = "counter"
	Gauge     MetricType = "gauge"
	Histogram MetricType = "histogram"
)

// Label is one name="value" pair. Callers provide labels in the order
// they should appear; the writer escapes values.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line within a family. Suffix extends the
// family name ("_bucket", "_sum", "_count" for histogram series; empty
// for plain counters and gauges).
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one metric family: a # HELP line, a # TYPE line, and its
// samples in the given (deterministic) order.
type Family struct {
	Name    string
	Help    string
	Type    MetricType
	Samples []Sample
}

// WriteExposition renders the families in order as Prometheus text
// exposition format (version 0.0.4). Families with no samples are
// skipped entirely so scrape output never contains dangling headers.
func WriteExposition(w io.Writer, families []Family) error {
	var b strings.Builder
	for _, f := range families {
		if len(f.Samples) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, helpEscaper.Replace(f.Help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			b.WriteString(f.Name)
			b.WriteString(s.Suffix)
			writeLabels(&b, s.Labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.Value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeLabels(b *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatValue renders v the way Prometheus clients do: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// FormatBound renders a histogram upper bound as a le= label value.
func FormatBound(bound float64) string { return formatValue(bound) }

// The exposition format's escapes for label values and HELP text.
// A Replacer is safe for concurrent use and builds its tables once.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// expositionSample matches one valid sample line of the 0.0.4 text
// format: metric name, optional label set, one value.
var expositionSample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// expositionComment matches the two legal comment forms.
var expositionComment = regexp.MustCompile(
	`^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped))$`)

// ValidateExposition checks that body parses as Prometheus text
// exposition format: every non-blank line is a legal HELP/TYPE comment
// or a sample line. It returns the first offending line.
func ValidateExposition(body string) error {
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !expositionComment.MatchString(line) {
				return fmt.Errorf("obs: exposition line %d: bad comment %q", i+1, line)
			}
			continue
		}
		if !expositionSample.MatchString(line) {
			return fmt.Errorf("obs: exposition line %d: bad sample %q", i+1, line)
		}
	}
	return nil
}

// Hist is a fixed-bound histogram: per-bucket (non-cumulative) counts
// against ascending finite upper bounds, the last bucket being +Inf,
// plus the sum and count of the observed values. A value equal to a
// bound lands in that bound's bucket, as le= reads. Bounds are shared
// between histograms and never written. A Hist does no locking; its
// owner guards it.
type Hist struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; the last is +Inf
	Sum    float64
	Count  uint64
}

// NewHist returns an empty histogram over bounds.
func NewHist(bounds []float64) *Hist {
	return &Hist{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Observe folds one value into the histogram.
func (h *Hist) Observe(v float64) {
	h.Counts[sort.SearchFloat64s(h.Bounds, v)]++
	h.Sum += v
	h.Count++
}

// Clone returns a copy that shares only the bounds.
func (h *Hist) Clone() Hist {
	c := *h
	c.Counts = append([]uint64(nil), h.Counts...)
	return c
}

// HistogramSamples builds the _bucket/_sum/_count sample series of one
// histogram from per-bucket (non-cumulative) counts. bounds are the
// finite upper bounds; counts must have len(bounds)+1 entries, the
// last being the +Inf overflow bucket. The shared labels appear before
// the le label on every _bucket line.
func HistogramSamples(labels []Label, bounds []float64, counts []uint64, sum float64, count uint64) []Sample {
	out := make([]Sample, 0, len(counts)+2)
	var cum uint64
	for i, n := range counts {
		cum += n
		bound := math.Inf(+1)
		if i < len(bounds) {
			bound = bounds[i]
		}
		le := append(append([]Label{}, labels...), Label{Name: "le", Value: FormatBound(bound)})
		out = append(out, Sample{Suffix: "_bucket", Labels: le, Value: float64(cum)})
	}
	out = append(out,
		Sample{Suffix: "_sum", Labels: labels, Value: sum},
		Sample{Suffix: "_count", Labels: labels, Value: float64(count)},
	)
	return out
}
