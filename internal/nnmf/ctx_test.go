package nnmf

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"csmaterials/internal/matrix"
)

// cancelAfterChecks is a context that reports itself done after its
// Err method has been consulted n times, by any goroutine — a stand-in
// for "the client disconnected mid-compute" that needs no sleeps.
type cancelAfterChecks struct {
	context.Context
	remaining atomic.Int64
}

func (c *cancelAfterChecks) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func cancelAfter(n int) *cancelAfterChecks {
	c := &cancelAfterChecks{Context: context.Background()}
	c.remaining.Store(int64(n))
	return c
}

// hardOptions returns options that need many iterations, so a prompt
// cancellation is distinguishable from running to convergence.
func hardOptions(k int) Options {
	return Options{K: k, Seed: 1, MaxIter: 400, Tol: 1e-12}
}

func TestFactorizeCtxCancelledBeforeStart(t *testing.T) {
	a := lowRankMatrix(10, 15, 3, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FactorizeCtx(ctx, a, hardOptions(3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFactorizeCtxStopsMidCompute is the cancellation contract: the
// iteration loop notices a done context after a handful of update
// steps and returns ctx.Err(), long before the convergence the same
// configuration needs when left alone.
func TestFactorizeCtxStopsMidCompute(t *testing.T) {
	a := lowRankMatrix(20, 30, 4, 3)
	opts := hardOptions(4)

	// Baseline: uncancelled, this configuration iterates far past the
	// budget the cancelled run gets.
	base, err := FactorizeCtx(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	const checks = 3
	if base.Iterations <= checks+1 {
		t.Fatalf("baseline converged in %d iterations; too fast to observe mid-compute cancellation", base.Iterations)
	}

	res, err := FactorizeCtx(cancelAfter(checks), a, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled factorization returned a result")
	}
}

func TestFactorizeCSRCtxStopsMidCompute(t *testing.T) {
	a := blockMatrix(5, 6, 3)
	opts := hardOptions(3)
	base, err := FactorizeCSRCtx(context.Background(), matrix.FromDense(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	const checks = 3
	if base.Iterations <= checks+1 {
		t.Fatalf("baseline converged in %d iterations; too fast to observe mid-compute cancellation", base.Iterations)
	}
	if _, err := FactorizeCSRCtx(cancelAfter(checks), matrix.FromDense(a), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFactorizeCtxDoesNotPerturbResult: threading a live context through
// the loop must not change the numbers — same seed, bit-identical error.
func TestFactorizeCtxDoesNotPerturbResult(t *testing.T) {
	a := lowRankMatrix(12, 18, 3, 5)
	opts := Options{K: 3, Seed: 7, MaxIter: 60}
	plain, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := FactorizeCtx(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Err != withCtx.Err || plain.Iterations != withCtx.Iterations { // lint:exact
		t.Fatalf("ctx changed the numbers: %v/%d vs %v/%d",
			plain.Err, plain.Iterations, withCtx.Err, withCtx.Iterations)
	}
}
