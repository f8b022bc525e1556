package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/materials"
	"csmaterials/internal/serving"
)

// phase collects a timed phase's ops and output-check failures.
type phase struct {
	mu        sync.Mutex
	ops       []time.Duration // op latencies
	fails     []string
	attempted int
	respBytes int64
	// before and after are the server's counters at the phase's ends.
	before, after counters
}

// add merges one connection's ops; each failed op carries exactly one
// message in fails.
func (p *phase) add(recs []time.Duration, fails []string, attempted int, respBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops = append(p.ops, recs...)
	p.fails = append(p.fails, fails...)
	p.attempted += attempted
	p.respBytes += respBytes
}

// latencies returns the op latencies in milliseconds.
func latencies(ops []time.Duration) []float64 {
	out := make([]float64, len(ops))
	for i, d := range ops {
		out[i] = ms(d)
	}
	return out
}

// expect turns a do() result into an error unless it is a 200.
func expect(st int, _ string, err error) error {
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("status %d", st)
	}
	return nil
}

// envelope is the part of a {"data","meta"} response the checks read.
type envelope struct {
	Data json.RawMessage `json:"data"`
	Meta struct {
		Cache    string `json:"cache"`
		Revision uint64 `json:"revision"`
	} `json:"meta"`
}

func decodeEnvelope(b []byte) (envelope, error) {
	var env envelope
	err := json.Unmarshal(b, &env)
	return env, err
}

// batchItem is the part of one batch result the checks read.
type batchItem struct {
	Data  json.RawMessage `json:"data"`
	Error *engine.Error   `json:"error"`
}

// batchItems decodes a batch response and fails on any item error.
func batchItems(b []byte, n int) ([]batchItem, error) {
	var env struct {
		Data []batchItem `json:"data"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, err
	}
	if len(env.Data) != n {
		return nil, fmt.Errorf("batch returned %d items, want %d", len(env.Data), n)
	}
	for i, it := range env.Data {
		if it.Error != nil {
			return nil, fmt.Errorf("batch item %d: %s: %s", i, it.Error.Code, it.Error.Message)
		}
	}
	return env.Data, nil
}

// runBatch POSTs qs as one batch over dataset ds and returns its items.
func runBatch(ctx context.Context, s *target, ds string, qs []query, buf *bytes.Buffer) ([]batchItem, error) {
	if err := expect(s.do(ctx, "POST", s.base+"/api/v1/batch", batchBody(ds, qs), buf)); err != nil {
		return nil, fmt.Errorf("batch on %s: %w", ds, err)
	}
	items, err := batchItems(buf.Bytes(), len(qs))
	if err != nil {
		return nil, fmt.Errorf("batch on %s: %w", ds, err)
	}
	return items, nil
}

// sameJSON reports whether two JSON texts encode the same value, as
// compact bytes: the server indents, the oracle does not.
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// oracle is a cold in-process executor: a fresh registry and cache, no
// priors, nothing shared with the server under test.
type oracle struct {
	reg  *dataset.Registry
	exec *engine.Executor
}

func newOracle(id string, courses []*materials.Course) (*oracle, error) {
	reg := dataset.NewRegistry(nil)
	if _, err := reg.Put(id, courses); err != nil {
		return nil, err
	}
	as, err := analyses.Default()
	if err != nil {
		return nil, err
	}
	exec := engine.NewExecutor(as, engine.ExecutorOptions{Datasets: reg, Cache: serving.NewCache(-1)})
	return &oracle{reg: reg, exec: exec}, nil
}

// check computes q on dataset id and compares it with the server's data.
func (o *oracle) check(ctx context.Context, id string, q query, got json.RawMessage) error {
	v, _, err := o.exec.RunOn(ctx, id, q.analysis, q.values())
	if err != nil {
		return fmt.Errorf("oracle %s: %w", q.path(id), err)
	}
	want, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if !sameJSON(got, want) {
		return fmt.Errorf("%s: server data differs from the cold oracle", q.path(id))
	}
	return nil
}
