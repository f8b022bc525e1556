package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records the benchmark's own spans in the traced run: one op
// span per workload op (or ladder sample) and one child span per call
// into a layer, all sharing the op's ID. Spans stay in memory and are
// written out once, at the end. A nil tracer records nothing, which is
// how the end-to-end runs measure with tracing off.
type tracer struct {
	t0    time.Time
	ops   atomic.Uint64
	ids   atomic.Uint64
	every int // fetch the server traces of one op in every this many

	mu      sync.Mutex
	spans   []spanRec
	seen    int
	slowest time.Duration
	slowOp  []string                   // server traces of the slowest op
	server  map[string]json.RawMessage // fetched server trace records
}

type spanRec struct {
	Op     uint64  `json:"op"`
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
	Trace  string  `json:"server_trace,omitempty"`
}

// span is an open span; end records it.
type span struct {
	tr     *tracer
	op, id uint64
	parent *span
	name   string
	start  time.Time
	kids   []string // server traces of the child spans' requests
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), every: 1, server: map[string]json.RawMessage{}}
}

// op opens a new op span with a fresh op ID.
func (t *tracer) op(name string) *span {
	if t == nil {
		return nil
	}
	return &span{tr: t, op: t.ops.Add(1), id: t.ids.Add(1), name: name, start: time.Now()}
}

// child opens a span under sp, in sp's op.
func (sp *span) child(name string) *span {
	if sp == nil {
		return nil
	}
	return &span{tr: sp.tr, op: sp.op, id: sp.tr.ids.Add(1), parent: sp, name: name, start: time.Now()}
}

// end closes the span, naming the server trace it caused, if any.
func (sp *span) end(serverTrace string) {
	if sp == nil {
		return
	}
	now := time.Now()
	var parent uint64
	if sp.parent != nil {
		parent = sp.parent.id
		if serverTrace != "" {
			sp.parent.kids = append(sp.parent.kids, serverTrace)
		}
	}
	rec := spanRec{
		Op: sp.op, ID: sp.id, Parent: parent, Name: sp.name,
		Start: float64(sp.start.Sub(sp.tr.t0)) / 1e3, Dur: float64(now.Sub(sp.start)) / 1e3,
		Trace: serverTrace,
	}
	sp.tr.mu.Lock()
	sp.tr.spans = append(sp.tr.spans, rec)
	sp.tr.mu.Unlock()
}

// sample fetches, from the server's trace ring, the records of the
// requests of every t.every-th op and of each op slower than all
// before it, so tail time is attributed to the server's stages. It
// runs right after the op, before the ring overwrites the records.
func (t *tracer) sample(ctx context.Context, s *target, op *span, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seen++
	slow := d > t.slowest
	if slow {
		t.slowest = d
		t.slowOp = op.kids
	}
	take := slow || t.seen%t.every == 0
	t.mu.Unlock()
	if !take {
		return
	}
	for _, id := range op.kids {
		raw, err := s.get(ctx, s.base+"/debug/trace/"+id)
		if err != nil {
			continue // evicted from the ring already
		}
		t.mu.Lock()
		t.server[id] = append(json.RawMessage(nil), raw...)
		t.mu.Unlock()
	}
}

// stageMS sums the server spans of the fetched records by stage name,
// over all of them and over the slowest op's requests.
func (t *tracer) stageMS() (all, slowest map[string]float64, records int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	all, slowest = map[string]float64{}, map[string]float64{}
	slow := map[string]bool{}
	for _, id := range t.slowOp {
		slow[id] = true
	}
	for id, raw := range t.server {
		var rec struct {
			DurationMS float64 `json:"duration_ms"`
			Spans      []struct {
				Name       string  `json:"name"`
				DurationMS float64 `json:"duration_ms"`
			} `json:"spans"`
		}
		if json.Unmarshal(raw, &rec) != nil {
			continue
		}
		all["(request)"] += rec.DurationMS
		for _, sp := range rec.Spans {
			all[sp.Name] += sp.DurationMS
		}
		if slow[id] {
			slowest["(request)"] += rec.DurationMS
			for _, sp := range rec.Spans {
				slowest[sp.Name] += sp.DurationMS
			}
		}
	}
	return all, slowest, len(t.server)
}

// write dumps every recorded span, plus the server trace records
// fetched during the run, as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans        []spanRec                  `json:"spans"`
		ServerTraces map[string]json.RawMessage `json:"server_traces"`
	}{t.spans, t.server})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
