package engine

import (
	"context"
	"net/url"
	"sync"

	"csmaterials/internal/dataset"
	"csmaterials/internal/obs"
)

// DefaultBatchWorkers bounds batch concurrency when the operator does
// not say otherwise. Analyses are CPU-bound, so a small pool saturates
// the machine without letting one batch starve interactive requests.
const DefaultBatchWorkers = 4

// MaxBatchItems bounds one batch request; larger batches are rejected
// up front rather than silently truncated.
const MaxBatchItems = 64

// BatchItem is one requested analysis in a batch: the registered name
// plus the same parameters the GET endpoint would take as query values.
// Dataset selects which dataset the item computes over; empty means the
// default dataset, so pre-datasets clients keep working unchanged.
type BatchItem struct {
	Analysis string            `json:"analysis"`
	Dataset  string            `json:"dataset,omitempty"`
	Params   map[string]string `json:"params,omitempty"`
}

// Values converts the item's params to url.Values for Analysis.Parse.
func (it BatchItem) Values() url.Values {
	v := make(url.Values, len(it.Params))
	for k, val := range it.Params {
		v.Set(k, val)
	}
	return v
}

// BatchResult is the per-item envelope of a batch response. Exactly one
// of Data or Error is set; Results[i] always answers Items[i], so a
// partial failure cannot shift or reorder the rest of the batch.
type BatchResult struct {
	Analysis string `json:"analysis"`
	// Dataset echoes the item's dataset selector; omitted when the item
	// did not set one, so legacy batch responses stay byte-identical.
	Dataset string      `json:"dataset,omitempty"`
	Key     string      `json:"key,omitempty"`
	Cache   string      `json:"cache,omitempty"`
	Data    interface{} `json:"data,omitempty"`
	Error   *Error      `json:"error,omitempty"`
}

// SetBatchWorkers sets the worker-pool bound for RunBatch (values < 1
// fall back to DefaultBatchWorkers). Called once at startup.
func (e *Executor) SetBatchWorkers(n int) {
	if n < 1 {
		n = DefaultBatchWorkers
	}
	e.mu.Lock()
	e.batchWorkers = n
	e.mu.Unlock()
}

// BatchWorkers returns the configured worker-pool bound.
func (e *Executor) BatchWorkers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.batchWorkers
}

// RunBatch executes every item through the full serving ladder on a
// bounded worker pool and returns one result per item, positionally.
//
// Each item keeps the exact semantics of its standalone endpoint: the
// cache is consulted first, concurrent equal items (within this batch
// or across requests) collapse into one singleflight flight, and the
// per-analysis breaker guards the compute. Failures are per-item error
// envelopes —
// one broken item never aborts the batch — and the output order is the
// input order regardless of completion order, so responses are
// deterministic under any worker interleaving.
//
// Cancelling ctx abandons unstarted items with 499 canceled envelopes;
// items already computing stop as soon as their flight loses its last
// waiter.
func (e *Executor) RunBatch(ctx context.Context, items []BatchItem) []BatchResult {
	e.mu.Lock()
	workers := e.batchWorkers
	e.batchCalls++
	e.batchItems += uint64(len(items))
	e.mu.Unlock()
	if workers > len(items) {
		workers = len(items)
	}

	results := make([]BatchResult, len(items))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = e.runItem(ctx, items[i])
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runItem executes one batch item, recording it as a batch-item span
// (labelled with the item's analysis and dataset when they are
// registered) in the batch request's trace;
// the ladder spans of the item itself interleave under the trace mutex
// with the other workers', each carrying its own analysis label.
func (e *Executor) runItem(ctx context.Context, it BatchItem) BatchResult {
	ds := it.Dataset
	if ds == "" {
		ds = dataset.DefaultID
	}
	sp := obs.StartSpan(ctx, "batch-item")
	if _, ok := e.reg.Get(it.Analysis); ok { // spans name registered analyses and datasets only
		sp.SetAnalysis(it.Analysis)
	}
	if _, ok := e.datasets.Get(ds); ok {
		sp.SetDataset(ds)
	}
	defer sp.End()
	res := BatchResult{Analysis: it.Analysis, Dataset: it.Dataset}
	if err := ctx.Err(); err != nil {
		res.Error = AsError(err)
		return res
	}
	v, out, err := e.RunOn(ctx, ds, it.Analysis, it.Values())
	if err != nil {
		res.Error = AsError(err)
		return res
	}
	res.Key = out.Key
	res.Cache = out.Cache
	res.Data = v
	return res
}
