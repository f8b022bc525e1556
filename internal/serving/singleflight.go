// Package serving is the production-hardening layer between the HTTP
// handlers and the analysis packages: a keyed result cache with
// singleflight deduplication, the per-route metrics registry, and the
// middleware stack (panic recovery, instrumentation, load shedding)
// that cmd/serve wraps around the API.
//
// Every analysis is a deterministic function of the courses it reads,
// and every cache key names a digest of them, so a held answer never
// goes out of date: the cache is bounded by size only, a lookup that
// finds its key is a hit, and a key is retired only when its input
// leaves the corpus (see Cache.Invalidate).
//
// The cache participates in request tracing (internal/obs): when a
// request context carries a trace, Cache.DoCtxFn records
// cache-hit/cache-miss, singleflight-lead/-join, and store spans, and
// Metrics.Export copies out the per-route status counts and obs.Hist
// latency histograms that the server's GET /metrics renders, its only
// metrics surface. Untraced contexts pay one nil context lookup and
// nothing else.
package serving

import (
	"context"
	"sync"
)

// call is an in-flight or completed singleflight computation. The
// result fields are written by the flight goroutine before done is
// closed and only read after <-done, so the channel close orders them;
// waiters is guarded by the group mutex.
type call struct {
	done     chan struct{}
	cancel   context.CancelFunc // cancels the flight context
	waiters  int                // callers (initiator included) still waiting
	val      interface{}
	err      error
	aborted  bool // the flight context was cancelled and fn errored
	panicVal interface{}
	panicked bool
	dups     int // waiters that joined this flight
}

// Group deduplicates concurrent computations by key: while a call for
// a key is in flight, additional Do calls for the same key wait for it
// and share its result instead of computing again.
type Group struct {
	mu sync.Mutex
	m  map[string]*call
}

// DoCtxFn executes fn once per key at a time. The flight runs in its
// own goroutine under a dedicated flight context, so no single caller
// owns it: a caller whose ctx is cancelled abandons the wait (receiving
// ctx.Err()) while followers keep the flight alive and receive its real
// result. Only when the LAST waiter departs is the flight context
// cancelled — a context-aware fn then observes cancellation and can
// stop its CPU work, because nobody is left to consume the answer. An
// fn that ignores its context keeps the old detached behaviour and runs
// to completion. The boolean reports whether the result was shared from
// another caller's flight.
//
// A caller that joins a flight in the narrow window after its
// cancellation triggered would receive the dying flight's ctx error
// even though its own context is live; DoCtxFn detects that case and
// transparently starts a fresh flight instead.
//
// If fn panics, the panic propagates to the initiating caller if it is
// still waiting; waiters receive an errPanicked error rather than
// hanging. An initiator that already left keeps the process alive: the
// panic is swallowed into errPanicked for any remaining waiters.
func (g *Group) DoCtxFn(ctx context.Context, key string, fn func(context.Context) (interface{}, error)) (interface{}, error, bool) {
	for {
		v, err, shared, aborted := g.doOnce(ctx, key, fn)
		if aborted && ctx.Err() == nil {
			// We shared a flight that was cancelled because all of its
			// own waiters left before we arrived. Our context is live,
			// so compute for real.
			continue
		}
		return v, err, shared
	}
}

func (g *Group) doOnce(ctx context.Context, key string, fn func(context.Context) (interface{}, error)) (v interface{}, err error, shared, aborted bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		c.waiters++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true, c.aborted
		case <-ctx.Done():
			g.leave(c)
			return nil, ctx.Err(), true, false
		}
	}
	fctx, cancel := context.WithCancel(context.Background()) // lint:detach flights outlive a cancelled leader so late joiners still get the value
	c := &call{done: make(chan struct{}), cancel: cancel, waiters: 1}
	g.m[key] = c
	g.mu.Unlock()

	go func() {
		defer func() {
			if p := recover(); p != nil {
				c.panicked = true
				c.panicVal = p
				c.err = errPanicked
			}
			c.aborted = fctx.Err() != nil && c.err != nil
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			close(c.done)
			cancel()
		}()
		c.val, c.err = fn(fctx)
	}()

	select {
	case <-c.done:
		if c.panicked {
			panic(c.panicVal)
		}
		return c.val, c.err, false, c.aborted
	case <-ctx.Done():
		g.leave(c)
		return nil, ctx.Err(), false, false
	}
}

// leave records one waiter abandoning the call; the last one out
// cancels the flight context so a context-aware computation can stop.
// Cancelling after the flight already completed is a harmless no-op.
func (g *Group) leave(c *call) {
	g.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	g.mu.Unlock()
	if last {
		c.cancel()
	}
}

// DoCtx is DoCtxFn for computations that do not take a context: the
// flight is fully detached and always runs to completion, even if every
// waiting caller's ctx is cancelled first.
func (g *Group) DoCtx(ctx context.Context, key string, fn func() (interface{}, error)) (interface{}, error, bool) {
	return g.DoCtxFn(ctx, key, func(context.Context) (interface{}, error) { return fn() })
}

// Do is DoCtx with a background context: the caller waits for the
// flight unconditionally.
func (g *Group) Do(key string, fn func() (interface{}, error)) (interface{}, error, bool) {
	return g.DoCtx(context.Background(), key, fn)
}

// waiting reports how many callers are blocked on the key's in-flight
// call (0 when no call is in flight). Used by tests to build
// deterministic concurrency scenarios.
func (g *Group) waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.dups
	}
	return 0
}

// errPanicked is handed to waiters whose flight's fn panicked.
var errPanicked = errorString("serving: singleflight computation panicked")

type errorString string

func (e errorString) Error() string { return string(e) }
