package nnmf

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"csmaterials/internal/matrix"
)

// running counts the goroutines of this process that are running NNMF
// restarts. Every factorize call counts the goroutine that made it, and
// a call starts a helper only while the count is below GOMAXPROCS. A
// lone fit therefore gets every idle core, while fits that already fill
// them (the engine's batch pool, AssessStability, robustness.Sweep)
// start no helpers until some of them finish.
var running atomic.Int64

// factorize is the one restart loop behind every entry point: the
// calling goroutine and the helpers it starts claim restart indices
// from a shared counter (see pool); the result is bit-identical to
// running the restarts one after another.
func factorize(ctx context.Context, p problem, opts Options) (*Result, error) {
	running.Add(1)
	defer running.Add(-1)
	n := opts.Restarts
	if opts.Init == InitNNDSVD {
		n = 1
	}
	return (&pool{ctx: ctx, p: p, opts: opts, n: int64(n)}).fit()
}

// pool runs one call's cold restarts. Restart r is seeded with Seed+r
// whichever worker claims it. Each worker owns a kernel (so a
// workspace), an RNG and two factor pairs, and keeps its own best by
// better's order. Merging the workers' bests by the same order picks
// the restart the sequential loop picks, in any split and merge order,
// and TotalIterations sums every worker's iterations.
type pool struct {
	ctx  context.Context
	p    problem
	opts Options
	n    int64        // restarts to run
	next atomic.Int64 // the next unclaimed restart index
	wg   sync.WaitGroup

	mu    sync.Mutex
	best  *Result
	total int
	err   error
	// panicked is the first helper panic's value; since Go 1.21 a
	// recovered panic value is never nil.
	panicked any
}

// fit runs restarts on the calling goroutine, with helpers, and
// returns once every helper has stopped. A helper's panic is re-raised
// here, where the caller's own recovery can see it.
func (f *pool) fit() (*Result, error) {
	defer func() {
		// On a panic in the caller's own restarts too: stop the
		// helpers claiming more and wait for them.
		f.stop()
		f.wg.Wait()
	}()
	f.merge(f.work())
	f.wg.Wait()
	if f.panicked != nil {
		panic(f.panicked)
	}
	if f.err != nil {
		return nil, f.err
	}
	f.best.TotalIterations = f.total
	return f.best, nil
}

// stop leaves no restart to claim; restarts already claimed still end.
func (f *pool) stop() { f.next.Store(f.n) }

// work claims and runs restarts until none is left, keeping this
// worker's best. The kernel and factor buffers are made on the first
// claim and the RNG on the first random init; each later restart
// initializes into the buffers of a losing one, so the worker's best
// is never overwritten.
func (f *pool) work() (best *Result, total int, err error) {
	var kern kernel
	var rng *rand.Rand
	cur := &Result{}
	for {
		f.spawn()
		r := f.next.Add(1) - 1
		if r >= f.n {
			return best, total, nil
		}
		if kern == nil {
			kern = f.p.kernel()
		}
		w, h := cur.W, cur.H
		if f.opts.Init == InitNNDSVD {
			w, h = nndsvd(f.p.dense(), f.opts.K)
		} else {
			if w == nil {
				w, h = matrix.New(f.p.rows, f.opts.K), matrix.New(f.opts.K, f.p.cols)
			}
			// A seeding refills the source's whole state, so the source
			// is made with this restart's seed and reseeded only for
			// later ones. Seed resets the read position to where New
			// starts it, so the draws are the same.
			if rng == nil {
				rng = rand.New(rand.NewSource(f.opts.Seed + r))
			} else {
				rng.Seed(f.opts.Seed + r)
			}
			randomInit(w, h, f.p.mean, rng)
		}
		*cur = Result{W: w, H: h, Residuals: cur.Residuals[:0], Restart: int(r)}
		if err := run(f.ctx, kern, cur, f.opts); err != nil {
			return nil, 0, err // every other worker sees ctx done at its next check
		}
		total += cur.Iterations
		if best == nil || better(cur, best) {
			best, cur = cur, best
			if cur == nil {
				cur = &Result{}
			}
		}
	}
}

// spawn starts one helper when a restart beyond the one this worker is
// about to claim is unclaimed and the process runs fewer restart
// goroutines than GOMAXPROCS.
func (f *pool) spawn() {
	if f.next.Load() >= f.n-1 {
		return
	}
	limit := int64(runtime.GOMAXPROCS(0))
	for {
		c := running.Load()
		if c >= limit {
			return
		}
		if running.CompareAndSwap(c, c+1) {
			break
		}
	}
	f.wg.Add(1)
	go f.help()
}

// help is a helper worker. It releases its budget slot before the
// caller's wait can return, and keeps a panic for the caller to
// re-raise rather than letting it end the process.
func (f *pool) help() {
	defer f.wg.Done()
	defer running.Add(-1)
	defer func() {
		if v := recover(); v != nil {
			f.stop()
			f.mu.Lock()
			if f.panicked == nil {
				f.panicked = v
			}
			f.mu.Unlock()
		}
	}()
	f.merge(f.work())
}

// merge folds one worker's outcome into the call's.
func (f *pool) merge(best *Result, total int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.total += total
	if err != nil && f.err == nil {
		f.err = err
	}
	if best != nil && (f.best == nil || better(best, f.best)) {
		f.best = best
	}
}

// better orders restart results as the sequential loop, which replaces
// its best only by a lower Err, picks among them: restart 0 first when
// its Err is NaN (no Err compares below NaN), a NaN Err of any other
// restart last (it compares below nothing), and otherwise the lower
// Err, then the lower restart index.
func better(a, b *Result) bool {
	aNaN, bNaN := math.IsNaN(a.Err), math.IsNaN(b.Err)
	switch {
	case aNaN && bNaN:
		return a.Restart < b.Restart
	case aNaN:
		return a.Restart == 0
	case bNaN:
		return b.Restart != 0
	case a.Err != b.Err:
		return a.Err < b.Err
	}
	return a.Restart < b.Restart
}
