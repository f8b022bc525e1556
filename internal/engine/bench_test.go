package engine_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"csmaterials/internal/engine"
)

// batchComputeLatency stands in for one analysis compute, on the order
// of a small NNMF factorization. The pool's win is overlapping these
// waits, so modelling the compute as latency keeps the benchmark
// meaningful on single-CPU CI runners, where a pure CPU spin cannot
// scale no matter how many workers run.
const batchComputeLatency = 200 * time.Microsecond

// BenchmarkBatchParallel measures POST /api/v1/batch semantics at the
// executor layer: a 16-item batch of distinct analyses, cold (every item
// computes) at 1, 4, and 8 workers, and warm (every item a cache hit).
// Cold runs should scale with the worker count; the warm run shows the
// pool overhead when the cache absorbs all the work.
func BenchmarkBatchParallel(b *testing.B) {
	const items = 16
	batch := make([]engine.BatchItem, items)
	for i := range batch {
		batch[i] = engine.BatchItem{
			Analysis: "fake",
			Params:   map[string]string{"key": fmt.Sprintf("k%02d", i)},
		}
	}
	compute := func(ctx context.Context, p fakeParams) (interface{}, error) {
		select {
		case <-time.After(batchComputeLatency):
			return "value:" + p.key, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	for _, bc := range []struct {
		name    string
		workers int
		warm    bool
	}{
		{"cold/workers=1", 1, false},
		{"cold/workers=4", 4, false},
		{"cold/workers=8", 8, false},
		{"warm/workers=4", 4, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fake := newFake("fake")
			fake.set(compute)
			exec, cache, _ := newFakeExecutor(fake)
			exec.SetBatchWorkers(bc.workers)
			if bc.warm {
				exec.RunBatch(context.Background(), batch)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !bc.warm {
					b.StopTimer()
					cache.Invalidate(func(string) bool { return true })
					b.StartTimer()
				}
				results := exec.RunBatch(context.Background(), batch)
				for _, r := range results {
					if r.Error != nil {
						b.Fatalf("item %s failed: %v", r.Key, r.Error)
					}
				}
			}
		})
	}
}
