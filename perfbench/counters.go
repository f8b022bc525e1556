package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
)

// counters is one reading of the server's own instruments: the
// Prometheus families on /metrics, summed over every label but the
// ones named in splitLabel, and the Go runtime's MemStats from the
// debug listener's heap profile.
type counters map[string]float64

// splitLabel keeps these labels apart when summing a family; every
// other label is summed over.
var splitLabel = map[string]string{
	"csm_stage_duration_seconds_sum": "stage",
	"csm_refresh_iterations_total":   "mode",
}

// readCounters scrapes /metrics and the MemStats of the heap profile.
// With gc set, the heap profile forces a collection first, so HeapAlloc
// is the live heap.
func (s *target) readCounters(ctx context.Context, gc bool) (counters, error) {
	c := counters{}
	raw, err := s.get(ctx, s.base+"/metrics")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels, _ := strings.Cut(series, "{")
		if l, ok := splitLabel[name]; ok {
			name += "/" + labelValue(labels, l)
		}
		c[name] += v
	}
	url := s.debug + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	heap, err := s.get(ctx, url)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(heap), "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		if x, err := strconv.ParseFloat(v, 64); err == nil {
			c["mem."+k] = x
		}
	}
	if _, ok := c["mem.HeapAlloc"]; !ok {
		return nil, fmt.Errorf("no MemStats in the heap profile")
	}
	return c, nil
}

// labelValue extracts one label's value from a `k="v",...}` list.
func labelValue(labels, key string) string {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// delta is b minus a for one counter.
func delta(a, b counters, name string) float64 { return b[name] - a[name] }
