// Package engine is the unified analysis layer between the HTTP/CLI
// surfaces and the analysis packages. Every computation the system can
// serve — agreement, course types, clustering, anchor recommendations,
// audits, PDC material recommendations, figures — is an Analysis: a
// stable name, a typed parameter set parsed from url.Values, the scope
// of courses an answer reads, and a context-aware compute over exactly
// those courses (a caller other than the executor passes
// repo.Restrict(a.Scope(p))).
//
// Analyses register in a Registry; an Executor runs them through the
// serving ladder (cache → breaker-guarded singleflight compute)
// uniformly, so the HTTP server, the batch endpoint, the CLIs, and the
// readiness warmup all dispatch generically instead of wiring cache
// keys and breakers per analysis.
//
// The cancellation contract: Compute receives a context that is
// cancelled when nobody is waiting for the result any more (all HTTP
// clients disconnected, the batch was abandoned). Long computations —
// the NNMF iteration loops, the agreement scans — check it between
// iterations and return ctx.Err() promptly instead of converging for
// nobody. A cancelled compute is not a failure: it never trips the
// circuit breaker and is never cached.
//
// The executor participates in request tracing (internal/obs): a
// request context carrying a trace accumulates ordered spans for every
// rung it visits — parse, the cache and singleflight spans emitted by
// internal/serving, breaker-allow/breaker-open, compute — each labelled
// with the analysis name, feeding the per-analysis per-stage latency
// histograms behind GET /metrics. Untraced contexts (CLIs, warmup) skip
// tracing entirely.
package engine

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"

	"csmaterials/internal/materials"
	"csmaterials/internal/resilience"
)

// Params is one analysis invocation's typed, validated parameter set.
// Implementations are produced by Analysis.Parse and must be usable as
// values (no shared mutable state): a singleflight flight may outlive
// the request that started it.
type Params interface {
	// Validate reports whether the parameter combination is servable.
	// Parse applies syntactic checks; Validate applies semantic ones
	// (ranges, known groups). A non-nil error is surfaced as a
	// 400 bad_request unless it is an *Error carrying its own status.
	Validate() error
	// CacheKey returns the canonical, pipe-delimited parameter part of
	// the analysis cache key — e.g. "cs1|3" for group=CS1&k=3. Equal
	// parameter sets MUST produce equal keys regardless of the spelling
	// of the request (case, defaults elided or explicit), because the
	// key identifies the cache entry and the singleflight flight.
	CacheKey() string
}

// Analysis is one registered computation.
type Analysis interface {
	// Name is the stable identifier: the API path segment
	// (/api/v1/<name>), the circuit-breaker name, the cache-key prefix,
	// and the fault-injection compute label (compute/<name>).
	Name() string
	// Parse builds the typed params from request query values, applying
	// defaults. It returns a 400-shaped error for malformed input; the
	// executor calls Validate on the result before computing.
	Parse(v url.Values) (Params, error)
	// Scope returns the courses p's answer reads: a course group, one
	// course, or none. The executor keys the answer by their digest.
	Scope(p Params) materials.Scope
	// Compute runs the analysis over repo, which holds exactly the
	// courses of Scope(p): the executor passes repo.Restrict(a.Scope(p)),
	// and so must any other caller. It must be pure and deterministic
	// for a given (repo, params) pair — results are cached indefinitely
	// — and should check ctx between expensive iterations, returning
	// ctx.Err() when cancelled.
	Compute(ctx context.Context, repo *materials.Repository, p Params) (interface{}, error)
}

// Warmer is implemented by analyses that should be pre-computed before
// the server reports ready (GET /readyz). WarmParams returns the
// parameter sets to warm, typically the expensive all-group defaults.
type Warmer interface {
	WarmParams() []Params
}

// Error is an analysis error carrying an HTTP status and a stable
// machine-readable code. Analyses return it for client-side conditions
// (unknown course, oversized k); the executor and the HTTP layer treat
// 4xx Errors as the service working correctly — they never trip
// circuit breakers.
type Error struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Message }

// Errorf builds an *Error with a formatted message.
func Errorf(status int, code, format string, args ...interface{}) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// AsError coerces err into an *Error for transport: an *Error passes
// through, resilience.ErrOpen maps to 503 circuit_open,
// context.Canceled to 499 (client closed request),
// context.DeadlineExceeded to 504, anything else to 500 internal.
func AsError(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	switch {
	case errors.Is(err, resilience.ErrOpen):
		return &Error{Status: http.StatusServiceUnavailable, Code: "circuit_open", Message: "temporarily disabled after repeated failures; retry later"}
	case errors.Is(err, context.Canceled):
		return &Error{Status: 499, Code: "canceled", Message: "client closed request"}
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Status: http.StatusGatewayTimeout, Code: "timeout", Message: err.Error()}
	}
	return &Error{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
}

// IsServerFailure classifies err for the circuit breaker and the
// failure counters: nil, client-side Errors (4xx — bad parameters, unknown
// courses or figures), cancellation (the waiters left; nothing is
// broken), and breaker rejections (not new evidence — the breaker
// already knows) are the service working correctly. Anything else is a
// failure of the compute path.
func IsServerFailure(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, resilience.ErrOpen) {
		return false
	}
	var e *Error
	if errors.As(err, &e) && e.Status < 500 {
		return false
	}
	return true
}

// Registry is the set of registered analyses. The HTTP mux, the batch
// executor, the readiness warmup, metrics, and the CLIs all iterate or
// look up this one structure, so adding an analysis to the system is
// exactly one Register call.
type Registry struct {
	mu    sync.RWMutex
	m     map[string]Analysis
	order []string
}

// NewRegistry builds a registry holding the given analyses.
// It panics on a duplicate or empty name — registration happens at
// startup, where a bad registration is a programming error.
func NewRegistry(as ...Analysis) *Registry {
	r := &Registry{m: make(map[string]Analysis)}
	for _, a := range as {
		r.MustRegister(a)
	}
	return r
}

// Register adds a, failing on duplicate or empty names.
func (r *Registry) Register(a Analysis) error {
	name := a.Name()
	if name == "" {
		return fmt.Errorf("engine: analysis with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("engine: duplicate analysis %q", name)
	}
	r.m[name] = a
	r.order = append(r.order, name)
	return nil
}

// MustRegister is Register, panicking on error.
func (r *Registry) MustRegister(a Analysis) {
	if err := r.Register(a); err != nil {
		panic(err)
	}
}

// Replace swaps the analysis registered under a.Name() for a, keeping
// its position. Tests use it to install fakes behind the full serving
// ladder; replacing an unregistered name panics so a typo cannot
// silently register a new analysis.
func (r *Registry) Replace(a Analysis) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[a.Name()]; !ok {
		panic(fmt.Sprintf("engine: Replace of unregistered analysis %q", a.Name()))
	}
	r.m[a.Name()] = a
}

// Get returns the analysis registered under name.
func (r *Registry) Get(name string) (Analysis, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.m[name]
	return a, ok
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// SortedNames returns the registered names sorted lexically, for
// deterministic display (CLIs, docs).
func (r *Registry) SortedNames() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}
