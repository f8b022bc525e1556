package nnmf

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csmaterials/internal/matrix"
)

// csrFit returns the served problem shape with restarts long enough
// (every one runs hundreds of iterations) for helpers to start claiming
// before the caller runs out of restarts.
func csrFit(t *testing.T, restarts int) (problem, Options) {
	t.Helper()
	a := matrix.FromDense(random01(30, 80, 0.15, 6))
	p, opts, err := csrProblem(a, Options{K: 4, Seed: 3, Restarts: restarts, MaxIter: 400, Tol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	return p, opts
}

// countWorkers wraps p's kernel constructor to count the workers that
// claimed a restart: each builds its kernel on its first claim.
func countWorkers(p *problem) *atomic.Int32 {
	var n atomic.Int32
	newKernel := p.kernel
	p.kernel = func() kernel {
		n.Add(1)
		return newKernel()
	}
	return &n
}

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestIdleProcessFansOut: with nothing else running restarts, a
// 10-restart fit at GOMAXPROCS 2 runs on both cores, and on no more.
func TestIdleProcessFansOut(t *testing.T) {
	setProcs(t, 2)
	p, opts := csrFit(t, 10)
	workers := countWorkers(&p)
	if _, err := factorize(context.Background(), p, opts); err != nil {
		t.Fatal(err)
	}
	if n := workers.Load(); n != 2 {
		t.Fatalf("a 10-restart fit on an idle process ran on %d workers, want 2", n)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("budget count %d after the call, want 0", n)
	}
}

// TestBusyProcessStartsNoHelper: a call made while GOMAXPROCS
// goroutines already run restarts fans out no further.
func TestBusyProcessStartsNoHelper(t *testing.T) {
	setProcs(t, 2)
	running.Add(1) // another fit, elsewhere in the process
	defer running.Add(-1)
	p, opts := csrFit(t, 10)
	workers := countWorkers(&p)
	if _, err := factorize(context.Background(), p, opts); err != nil {
		t.Fatal(err)
	}
	if n := workers.Load(); n != 1 {
		t.Fatalf("a fit beside a busy core ran on %d workers, want 1", n)
	}
}

// TestSingleRunsStartNoHelper: an NNDSVD fit makes exactly one run, on
// the calling goroutine.
func TestSingleRunsStartNoHelper(t *testing.T) {
	setProcs(t, 4)
	p, opts := csrFit(t, 10)
	opts.Init = InitNNDSVD
	workers := countWorkers(&p)
	res, err := factorize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := workers.Load(); n != 1 || res.TotalIterations != res.Iterations {
		t.Errorf("nndsvd: %d workers, %d of %d iterations in the winner; want one run", n, res.Iterations, res.TotalIterations)
	}
}

// flatKernel reports the same residual for any factors, so every
// restart ties. Its step sleeps so helpers claim restarts while the
// caller is still running its own.
type flatKernel struct{}

func (flatKernel) start(_, _ *matrix.Dense) {}
func (flatKernel) finish()                  {}
func (flatKernel) step() float64 {
	time.Sleep(200 * time.Microsecond)
	return 0.5
}

// TestTiedRestartsGoToTheLowestIndex: whichever worker ran it, the
// winner of a tie is restart 0, as in a sequential loop.
func TestTiedRestartsGoToTheLowestIndex(t *testing.T) {
	setProcs(t, 4)
	p := problem{rows: 3, cols: 4, mean: 1, kernel: func() kernel { return flatKernel{} }}
	opts := Options{K: 2, Seed: 1, Restarts: 12, MaxIter: 5}.withDefaults()
	for i := 0; i < 5; i++ {
		res, err := factorize(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Each restart stalls at its second iteration.
		if res.Restart != 0 || res.TotalIterations != 2*opts.Restarts {
			t.Fatalf("tie won by restart %d after %d iterations, want restart 0 after %d", res.Restart, res.TotalIterations, 2*opts.Restarts)
		}
	}
}

// TestCancelStopsEveryWorker: a fit cancelled mid-compute while several
// workers run returns ctx.Err() and no result, and only after every
// helper has stopped and released its budget slot.
func TestCancelStopsEveryWorker(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		setProcs(t, 2)
	}
	p, opts := csrFit(t, 10)
	workers := countWorkers(&p)
	// 10 restarts × 400 iterations check ctx 4000 times; stop at 1000.
	res, err := factorize(cancelAfter(1000), p, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled factorization returned a result")
	}
	if n := workers.Load(); n < 2 {
		t.Fatalf("%d workers ran; the test needs helpers to cancel", n)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("budget count %d after the call, want 0: a helper leaked", n)
	}
}

var errHelperPanic = errors.New("kernel panic on a helper")

// panicKernel panics on its first step.
type panicKernel struct{}

func (panicKernel) start(_, _ *matrix.Dense) {}
func (panicKernel) step() float64            { panic(errHelperPanic) }
func (panicKernel) finish()                  {}

// goroutineID returns the running goroutine's number from its stack
// header ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestHelperPanicReraisedOnCaller: a panic on a helper goroutine
// reaches the caller as a panic with the same value, which the
// caller's recover (singleflight's, the Recover middleware's) handles,
// instead of ending the process.
func TestHelperPanicReraisedOnCaller(t *testing.T) {
	setProcs(t, 2)
	p, opts := csrFit(t, 10)
	caller := goroutineID()
	newKernel := p.kernel
	p.kernel = func() kernel {
		if goroutineID() == caller {
			return newKernel()
		}
		return panicKernel{}
	}
	defer func() {
		if v := recover(); v != errHelperPanic {
			t.Fatalf("recovered %v, want the helper's panic", v)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("budget count %d after the panic, want 0", n)
		}
	}()
	_, _ = factorize(context.Background(), p, opts)
	t.Fatal("factorize returned instead of re-raising the helper's panic")
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1)
// pin, so helpers run: it averages runtime.MemStats.Mallocs over runs
// calls of f, after one warm-up call.
func mallocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestParallelRestartsAllocatePerWorker: at GOMAXPROCS 4 a call runs at
// most four workers, each owning one workspace and two factor pairs, so
// its allocations stop growing with Restarts past the worker cap: even
// 64 restarts allocate no more than four single-worker calls.
func TestParallelRestartsAllocatePerWorker(t *testing.T) {
	a := matrix.FromDense(random01(30, 80, 0.15, 6))
	fit := func(restarts int) func() {
		opts := Options{K: 4, Seed: 3, Restarts: restarts, MaxIter: 40, Tol: 1e-300}
		return func() {
			if _, err := FactorizeCSR(a, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	oneWorker := testing.AllocsPerRun(5, fit(2)) // AllocsPerRun pins GOMAXPROCS to 1
	const workers = 4
	setProcs(t, workers)
	for _, restarts := range []int{4, 16, 64} {
		if got := mallocsPerRun(5, fit(restarts)); got > workers*oneWorker {
			t.Errorf("%d restarts at GOMAXPROCS %d allocate %.0f times, above %d workers' %.0f", restarts, workers, got, workers, workers*oneWorker)
		}
	}
}

// sequentialWinner is the restart the sequential loop keeps: it
// replaces its best only by a strictly lower Err.
func sequentialWinner(errs []float64) int {
	best := 0
	for r, e := range errs {
		if e < errs[best] {
			best = r
		}
	}
	return best
}

// nanErrs are restart Err vectors holding NaN, for the merge tests.
var nanErrs = [][]float64{
	{math.NaN(), 3, 1},
	{2, math.NaN(), 1},
	{math.NaN(), math.NaN()},
	{1, math.NaN(), 1, math.NaN()},
	{math.NaN(), 2, math.NaN(), 2},
	{3, 3, math.NaN(), 1, 1},
}

// permutations calls f with every ordering of xs, permuting it in place.
func permutations(xs []*Result, n int, f func([]*Result)) {
	if n <= 1 {
		f(xs)
		return
	}
	for i := 0; i < n; i++ {
		permutations(xs, n-1, f)
		j := 0
		if n%2 == 0 {
			j = i
		}
		xs[j], xs[n-1] = xs[n-1], xs[j]
	}
}

// TestMergePicksTheSequentialWinner: for every split of the restarts
// across workers, each worker keeping its best of its restarts in
// claim order, and every order in which the workers' bests merge, the
// pool keeps the restart the sequential loop keeps, NaN Errs included.
func TestMergePicksTheSequentialWinner(t *testing.T) {
	for _, errs := range nanErrs {
		n := len(errs)
		want := sequentialWinner(errs)
		worker := make([]int, n) // restart r runs on worker[r]; all n^n splits
		for {
			var bests []*Result
			for w := 0; w < n; w++ {
				mine := &pool{}
				for r := range errs {
					if worker[r] == w {
						mine.merge(&Result{Err: errs[r], Restart: r}, 0, nil)
					}
				}
				if mine.best != nil {
					bests = append(bests, mine.best)
				}
			}
			permutations(bests, len(bests), func(order []*Result) {
				call := &pool{}
				for _, b := range order {
					call.merge(b, 0, nil)
				}
				if call.best.Restart != want {
					t.Fatalf("Errs %v split %v merged in order %v: restart %d won, want %d",
						errs, worker, restarts(order), call.best.Restart, want)
				}
			})
			i := 0
			for i < n && worker[i] == n-1 {
				worker[i] = 0
				i++
			}
			if i == n {
				break
			}
			worker[i]++
		}
	}
}

func restarts(rs []*Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Restart
	}
	return out
}

// errKernel reports errs[r] at every step of restart r, which it knows
// from the first entry of W that restart r's seed draws (firsts). Its
// step sleeps so helpers claim restarts while the caller runs its own.
type errKernel struct {
	errs   []float64
	firsts map[float64]int
	r      int
}

func (k *errKernel) start(w, _ *matrix.Dense) { k.r = k.firsts[w.At(0, 0)] }
func (k *errKernel) finish()                  {}
func (k *errKernel) step() float64 {
	time.Sleep(100 * time.Microsecond)
	return k.errs[k.r]
}

// TestParallelFitPicksTheSequentialWinner runs the same Err vectors
// through factorize at GOMAXPROCS 4, so the workers' own bests come
// from the pool's claims, not from the test.
func TestParallelFitPicksTheSequentialWinner(t *testing.T) {
	setProcs(t, 4)
	opts := Options{K: 2, Seed: 7, MaxIter: 3}.withDefaults()
	const rows, cols, mean = 3, 4, 1.0
	for _, errs := range nanErrs {
		opts.Restarts = len(errs)
		firsts := map[float64]int{}
		for r := range errs {
			w, h := matrix.New(rows, opts.K), matrix.New(opts.K, cols)
			randomInit(w, h, mean, rand.New(rand.NewSource(opts.Seed+int64(r))))
			firsts[w.At(0, 0)] = r
		}
		p := problem{rows: rows, cols: cols, mean: mean, kernel: func() kernel {
			return &errKernel{errs: errs, firsts: firsts}
		}}
		want := sequentialWinner(errs)
		for i := 0; i < 5; i++ {
			res, err := factorize(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Restart != want {
				t.Fatalf("Errs %v: restart %d won, want %d", errs, res.Restart, want)
			}
		}
	}
}
