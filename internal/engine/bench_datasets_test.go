package engine_test

import (
	"context"
	"encoding/json"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/factorize"
	"csmaterials/internal/materials"
	"csmaterials/internal/nnmf"
	"csmaterials/internal/resilience"
	"csmaterials/internal/serving"
)

// benchRecorder accumulates dataset-benchmark results across b.Run
// invocations so TestMain can emit one BENCH_datasets.json snapshot
// after the run. testing reruns a benchmark with growing b.N; keying
// by scenario keeps only the final (highest-N, most stable) sample.
var benchRecorder = struct {
	sync.Mutex
	scenarios map[string]benchScenario
}{scenarios: map[string]benchScenario{}}

type benchScenario struct {
	Dataset    string `json:"dataset"`
	Mode       string `json:"mode"`
	NsPerOp    int64  `json:"ns_per_op"`
	Iterations int    `json:"iterations"`
}

func recordBench(dataset, mode string, b *testing.B) {
	benchRecorder.Lock()
	defer benchRecorder.Unlock()
	benchRecorder.scenarios[dataset+"/"+mode] = benchScenario{
		Dataset:    dataset,
		Mode:       mode,
		NsPerOp:    b.Elapsed().Nanoseconds() / int64(b.N),
		Iterations: b.N,
	}
}

// TestMain emits the dataset cold/warm perf snapshot when BENCH_JSON
// names an output path (make bench sets it to BENCH_datasets.json).
// Plain `go test` runs leave the environment untouched and write
// nothing.
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_JSON"); path != "" && len(benchRecorder.scenarios) > 0 {
		keys := make([]string, 0, len(benchRecorder.scenarios))
		for k := range benchRecorder.scenarios {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := struct {
			Benchmark string          `json:"benchmark"`
			GoOS      string          `json:"goos"`
			GoArch    string          `json:"goarch"`
			CPUs      int             `json:"cpus"`
			Scenarios []benchScenario `json:"scenarios"`
		}{
			Benchmark: "BenchmarkDatasetServing,BenchmarkNNMFCore,BenchmarkBatchScaling",
			GoOS:      runtime.GOOS,
			GoArch:    runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
		}
		for _, k := range keys {
			out.Scenarios = append(out.Scenarios, benchRecorder.scenarios[k])
		}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(raw, '\n'), 0o644)
		}
		if err != nil {
			os.Stderr.WriteString("bench snapshot: " + err.Error() + "\n")
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// newDatasetExecutor wires the real analysis registry over a dataset
// registry holding the 20-course seed corpus as "default" and a
// 5-course subset as "alt" — the two corpora the cold/warm scenarios
// compare.
func newDatasetExecutor(b *testing.B, cache *serving.Cache) *engine.Executor {
	b.Helper()
	reg, err := analyses.Default()
	if err != nil {
		b.Fatal(err)
	}
	datasets := dataset.NewRegistry(nil)
	// JSON round-trip the subset so the registry ingests fresh course
	// objects instead of aliasing the shared seed corpus.
	raw, err := json.Marshal(dataset.Document{Courses: dataset.Courses()[:5]})
	if err != nil {
		b.Fatal(err)
	}
	var doc dataset.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		b.Fatal(err)
	}
	if _, err := datasets.Put("alt", doc.Courses); err != nil {
		b.Fatal(err)
	}
	return engine.NewExecutor(reg, engine.ExecutorOptions{
		Datasets: datasets,
		Cache:    cache,
		Breakers: resilience.NewBreakerSet(resilience.DefaultBreakerThreshold, time.Minute),
	})
}

// BenchmarkDatasetServing measures the dataset-scoped serving ladder
// end to end at the executor layer: a cold agreement analysis (cache
// invalidated each iteration, full compute) and a warm one (a hit on
// the key of its courses' digest) for both the full seed corpus and a small ingested
// dataset. The cold/warm gap is the cache's value; the default/alt
// cold gap shows how compute cost tracks corpus size.
func BenchmarkDatasetServing(b *testing.B) {
	for _, bc := range []struct {
		dataset string
		mode    string
	}{
		{dataset.DefaultID, "cold"},
		{dataset.DefaultID, "warm"},
		{"alt", "cold"},
		{"alt", "warm"},
	} {
		b.Run(bc.dataset+"/"+bc.mode, func(b *testing.B) {
			exec := newDatasetExecutor(b, serving.NewCache(256))
			run := func(wantHit bool) {
				_, out, err := exec.RunOn(context.Background(), bc.dataset, "agreement", nil)
				if err != nil {
					b.Fatal(err)
				}
				if wantHit && out.Cache != "hit" {
					b.Fatalf("warm iteration served %q, want hit", out.Cache)
				}
			}
			run(false) // populate the cache (discarded for cold runs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.mode == "cold" {
					b.StopTimer()
					exec.InvalidateDataset(bc.dataset)
					b.StartTimer()
				}
				run(bc.mode == "warm")
			}
			b.StopTimer()
			recordBench(bc.dataset, bc.mode, b)
		})
	}

	// Eviction pressure under tenancy: a deliberately small cache
	// partitioned between the two datasets (two-entry budget each) with
	// both tenants cycling through more distinct keys than their budget
	// holds. Every request misses, computes, and evicts inside its own
	// partition — the worst-case multi-tenant steady state, and the
	// scenario that catches budget-enforcement overhead regressions.
	b.Run("mixed/contended", func(b *testing.B) {
		cache := serving.NewCache(4)
		exec := newDatasetExecutor(b, cache)
		cache.Partition([]string{dataset.DefaultID, "alt"}, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds := dataset.DefaultID
			if i%2 == 1 {
				ds = "alt"
			}
			// Four distinct thresholds per tenant against a two-entry
			// budget: every request misses and evicts within its scope.
			v := url.Values{"threshold": []string{strconv.Itoa((i/2)%4 + 1)}}
			if _, _, err := exec.RunOn(context.Background(), ds, "agreement", v); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordBench("mixed", "contended", b)
	})
}

// BenchmarkNNMFCore measures the factorization kernel behind the types
// analysis on the full seed-corpus matrix — the CSR path factorize.Analyze
// serves: cold is the paper's 10-restart multiplicative-update run, its
// restarts on every idle core; serial is the same call at GOMAXPROCS 1,
// so serial/cold is the restart fan-out's speedup on the snapshot's CPU
// count.
func BenchmarkNNMFCore(b *testing.B) {
	a, _ := materials.CourseMatrix(dataset.Courses())
	opts := factorize.PaperOptions()
	opts.K = 4
	b.Run("nnmf/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := nnmf.FactorizeCSR(a, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordBench("nnmf", "cold", b)
	})
	b.Run("nnmf/serial", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := nnmf.FactorizeCSR(a, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordBench("nnmf", "serial", b)
	})
}

// BenchmarkBatchScaling measures RunBatch over real analyses with the
// caches invalidated each iteration (every item computes), serial (one
// worker) vs parallel (four workers). The serial/parallel gap is the
// worker pool's value on compute-bound batches.
func BenchmarkBatchScaling(b *testing.B) {
	var items []engine.BatchItem
	for _, ds := range []string{dataset.DefaultID, "alt"} {
		for k := 2; k <= 4; k++ {
			items = append(items, engine.BatchItem{
				Analysis: "agreement", Dataset: ds,
				Params: map[string]string{"threshold": strconv.Itoa(k)},
			})
		}
	}
	for _, bc := range []struct {
		mode    string
		workers int
	}{{"serial", 1}, {"parallel", 4}} {
		b.Run("batch/"+bc.mode, func(b *testing.B) {
			exec := newDatasetExecutor(b, serving.NewCache(256))
			exec.SetBatchWorkers(bc.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				exec.InvalidateDataset(dataset.DefaultID)
				exec.InvalidateDataset("alt")
				b.StartTimer()
				for _, res := range exec.RunBatch(context.Background(), items) {
					if res.Error != nil {
						b.Fatalf("%s: %v", res.Analysis, res.Error)
					}
				}
			}
			b.StopTimer()
			recordBench("batch", bc.mode, b)
		})
	}
}
