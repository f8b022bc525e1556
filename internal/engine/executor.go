package engine

import (
	"context"
	"encoding/hex"
	"errors"
	"net/url"
	"strings"
	"sync"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/obs"
	"csmaterials/internal/resilience"
	"csmaterials/internal/resilience/faultinject"
	"csmaterials/internal/serving"
)

// ExecutorOptions configures an Executor.
type ExecutorOptions struct {
	// Datasets is the dataset registry every run resolves its
	// repository through; required. Cache keys carry a
	// "<dataset>@<scope digest>|" prefix, and breakers, stats, and
	// fault labels partition per (dataset, analysis).
	Datasets *dataset.Registry
	// Cache is the result cache + singleflight group; required.
	Cache *serving.Cache
	// Breakers is the per-(dataset, analysis) circuit-breaker set; nil
	// disables circuit breaking.
	Breakers *resilience.BreakerSet
	// Faults injects chaos into compute paths under the label
	// "compute/<scope>"; nil injects nothing.
	Faults *faultinject.Injector
	// Deprecated: StaleServe has no effect. Every held answer is served
	// as a cache hit; an answer that is not held is computed or fails.
	StaleServe bool
}

// Outcome describes how a Run was answered, for the response meta.
type Outcome struct {
	// Key is the logical cache key, "<name>|<params.CacheKey()>" — the
	// client-facing identity of the computation, identical across
	// datasets and revisions. The physical cache key adds the
	// "<dataset>@<scope digest>|" prefix.
	Key string
	// Dataset is the dataset the computation resolved against.
	Dataset string
	// Revision is the dataset revision served.
	Revision uint64
	// Cache is "hit" (held answer or shared flight) or "miss" (this call
	// computed).
	Cache string
}

// analysisStats counts per-scope executor activity.
type analysisStats struct {
	computes uint64
	failures uint64
	hits     uint64
	misses   uint64
}

// AnalysisStats is one scope's executor counters. The map key is the
// scope name: the bare analysis name for the default dataset,
// "<dataset>/<analysis>" otherwise — so per-dataset serving behaviour
// is separable in /metrics.
type AnalysisStats struct {
	Computes    uint64 `json:"computes"`
	Failures    uint64 `json:"failures"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// Stats is the executor's accounting behind the csm_analysis_*,
// csm_batch_* and csm_refresh_* families of /metrics: per-scope
// compute accounting plus batch totals.
type Stats struct {
	Analyses map[string]AnalysisStats `json:"analyses"`
	// Refresh breaks down refreshes, invalidation and NNMF iterations
	// per dataset (absent until a refresh or an iterative compute
	// happens).
	Refresh      map[string]RefreshStats `json:"refresh,omitempty"`
	BatchCalls   uint64                  `json:"batch_calls"`
	BatchItems   uint64                  `json:"batch_items"`
	BatchWorkers int                     `json:"batch_workers"`
}

// Executor runs registered analyses through the serving ladder: cache
// → breaker-guarded singleflight compute. Every surface (HTTP handlers,
// the batch endpoint, warmup, CLIs) goes through the same entry points,
// so the semantics of a cache key or a breaker cannot diverge per
// caller.
//
// The ladder is partitioned per dataset: RunOn/RunParamsOn resolve a
// snapshot from the registry, physical cache keys carry the digest of
// the courses the answer reads in that snapshot (so an ingest can never
// race an in-flight compute into a torn or cross-revision read), and
// breakers/stats/fault labels are scoped "<dataset>/<analysis>" for
// non-default datasets.
type Executor struct {
	reg      *Registry
	datasets *dataset.Registry
	cache    *serving.Cache
	breakers *resilience.BreakerSet
	faults   *faultinject.Injector

	batchWorkers int

	mu         sync.Mutex
	stats      map[string]*analysisStats
	refresh    map[string]*refreshStats
	batchCalls uint64
	batchItems uint64
}

// NewExecutor builds an executor over the registry. When o.Breakers is
// set, a breaker is materialized for every registered analysis (under
// the default dataset's scope) up front, so readiness and metrics
// report the full set from the first request rather than growing it
// lazily; non-default dataset scopes materialize on first use.
func NewExecutor(reg *Registry, o ExecutorOptions) *Executor {
	e := &Executor{
		reg:          reg,
		datasets:     o.Datasets,
		cache:        o.Cache,
		breakers:     o.Breakers,
		faults:       o.Faults,
		batchWorkers: DefaultBatchWorkers,
		stats:        make(map[string]*analysisStats),
		refresh:      make(map[string]*refreshStats),
	}
	if e.breakers != nil {
		for _, name := range reg.Names() {
			e.breakers.Get(name)
		}
	}
	// Physical keys carry the dataset prefix, so the cache can partition
	// its budget per dataset: one tenant's fill evicts only that
	// tenant's entries.
	e.cache.SetScopeFunc(DatasetScope)
	return e
}

// Registry exposes the analysis registry.
func (e *Executor) Registry() *Registry { return e.reg }

// scopeName is the per-(dataset, analysis) identifier used for
// breakers, executor stats, and fault labels. The default dataset
// keeps the bare analysis name — unchanged from the single-dataset
// era — so existing dashboards and envelopes stay byte-identical;
// other datasets are "<dataset>/<analysis>" ('/' cannot occur in
// either part).
func scopeName(ds, name string) string {
	if ds == dataset.DefaultID {
		return name
	}
	return ds + "/" + name
}

// SplitScope is the inverse of the executor's scope naming: it splits
// a breaker/stats key into its (dataset, analysis) parts, mapping bare
// names to the default dataset.
func SplitScope(scope string) (ds, analysis string) {
	if i := strings.IndexByte(scope, '/'); i >= 0 {
		return scope[:i], scope[i+1:]
	}
	return dataset.DefaultID, scope
}

// resolve maps a dataset ID to the repository and revision a run
// computes over.
func (e *Executor) resolve(ds string) (*materials.Repository, uint64, error) {
	if err := dataset.ValidateID(ds); err != nil {
		return nil, 0, Errorf(400, "bad_request", "%s", err.Error())
	}
	snap, ok := e.datasets.Get(ds)
	if !ok {
		return nil, 0, Errorf(404, "not_found", "unknown dataset %q", ds)
	}
	return snap.Repo(), snap.Revision(), nil
}

// physicalKey derives the cache/singleflight key from the logical key:
// it is prefixed with the dataset and the hex digest of the courses the
// answer reads ("<dataset>@<digest>|"), so two revisions share an
// answer exactly when its input is the same in both, and invalidation
// can target exactly one dataset's entries.
func physicalKey(ds string, d materials.Digest, logical string) string {
	var h [2 * len(materials.Digest{})]byte
	hex.Encode(h[:], d[:])
	return ds + "@" + string(h[:]) + "|" + logical
}

// DatasetScope maps a physical cache key to the dataset that owns it:
// the "<dataset>@<digest>|<logical>" prefix identifies the tenant ('@'
// and '|' cannot occur in a dataset ID). Keys without such a prefix
// fall into the shared "" scope.
func DatasetScope(key string) string {
	at := strings.IndexByte(key, '@')
	if at <= 0 {
		return ""
	}
	if bar := strings.IndexByte(key, '|'); bar >= 0 && bar < at {
		return ""
	}
	return key[:at]
}

// RetryAfterOn returns the wait hinted to clients rejected by the open
// circuit of analysis name on dataset ds (zero without breakers).
func (e *Executor) RetryAfterOn(ds, name string) time.Duration {
	if e.breakers == nil {
		return 0
	}
	return e.breakers.Get(scopeName(ds, name)).RetryAfter()
}

// Run executes the named analysis against the default dataset.
func (e *Executor) Run(ctx context.Context, name string, values url.Values) (interface{}, Outcome, error) {
	return e.RunOn(ctx, dataset.DefaultID, name, values)
}

// RunOn parses values against the named analysis and executes it
// against dataset ds through the ladder. Unknown names and datasets
// are 404 *Errors; malformed dataset IDs and parse/validation failures
// are 400 *Errors unless the analysis supplied its own status.
func (e *Executor) RunOn(ctx context.Context, ds, name string, values url.Values) (interface{}, Outcome, error) {
	return value(e.AnswerOn(ctx, ds, name, values))
}

// AnswerOn is RunOn returning the cached answer itself rather than its
// value: a response that writes the answer's Data writes bytes encoded
// once per answer, not once per read.
func (e *Executor) AnswerOn(ctx context.Context, ds, name string, values url.Values) (*serving.Answer, Outcome, error) {
	a, ok := e.reg.Get(name)
	if !ok {
		return nil, Outcome{}, Errorf(404, "not_found", "unknown analysis %q", name)
	}
	if _, ok := e.datasets.Get(ds); ok { // spans name registered datasets only
		ctx = obs.WithDataset(ctx, ds)
	}
	ctx = obs.WithAnalysis(ctx, name)
	sp := obs.StartSpan(ctx, "parse")
	p, err := e.ParseParams(a, values)
	if err != nil {
		sp.EndAs("parse-error")
		return nil, Outcome{}, err
	}
	sp.End()
	return e.answer(ctx, ds, a, p)
}

// value unwraps an answer for the callers that want the typed value.
func value(ans *serving.Answer, out Outcome, err error) (interface{}, Outcome, error) {
	if err != nil {
		return nil, out, err
	}
	return ans.Value, out, nil
}

// ParseParams parses and validates values for a, normalizing non-Error
// failures to 400 bad_request.
func (e *Executor) ParseParams(a Analysis, values url.Values) (Params, error) {
	p, err := a.Parse(values)
	if err != nil {
		return nil, asBadRequest(err)
	}
	if err := p.Validate(); err != nil {
		return nil, asBadRequest(err)
	}
	return p, nil
}

func asBadRequest(err error) error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	return &Error{Status: 400, Code: "bad_request", Message: err.Error()}
}

// Key returns the logical cache key of (a, p).
func Key(a Analysis, p Params) string {
	if ck := p.CacheKey(); ck != "" {
		return a.Name() + "|" + ck
	}
	return a.Name()
}

// FleetKeyOn returns the cluster ownership key for one analysis
// request: "<dataset>|<logical key>". It is the physical cache key
// minus the revision — each replica runs its own revision counters, so
// including them would make replicas disagree about ownership; the
// logical triple (dataset, analysis, paramKey) is what must hash
// identically everywhere. Unknown analyses and invalid params return
// the same *Error the serving path would, so callers can fall through
// to local handling for the canonical error envelope.
func (e *Executor) FleetKeyOn(ds, name string, values url.Values) (string, error) {
	a, ok := e.reg.Get(name)
	if !ok {
		return "", Errorf(404, "not_found", "unknown analysis %q", name)
	}
	p, err := e.ParseParams(a, values)
	if err != nil {
		return "", err
	}
	return ds + "|" + Key(a, p), nil
}

// RunParamsOn executes a with validated params against dataset ds
// through the full ladder.
//
// The compute runs under the singleflight FLIGHT context: concurrent
// equal requests share one computation, a departing caller cannot
// cancel it for the others, and when the last caller departs the
// flight context is cancelled so Compute stops burning CPU. Cancelled
// computes are not failures: they never trip the breaker and are never
// cached.
//
// Dataset isolation: the snapshot (repository + revision) is resolved
// once, before the ladder, and the digest of the courses the answer
// reads in it is baked into the physical cache key. A concurrent ingest
// swaps the registry's snapshot pointer but cannot touch this run — it
// computes over its resolved snapshot and stores under that snapshot's
// digest, which a later request reads only if its own snapshot holds
// the same input. There is no torn read and no cross-revision answer.
//
// A held answer is a hit and never reaches the breaker, the compute or
// a deadline. Only an answer that is not held does; then a compute
// failure, timeout, or open circuit comes back as its error:
// resilience.ErrOpen, context errors, an *Error from the analysis, or
// the raw compute error.
// Tracing: when ctx carries an obs.Trace, the ladder walk is recorded
// as ordered spans — the breaker decision (breaker-allow/breaker-open),
// the compute (compute/compute-error/compute-canceled), plus the
// cache-level spans serving.Cache emits — all labelled with the
// analysis name and dataset ID for the per-stage histograms. The
// guarded closure records into the trace of the request that INITIATED
// the flight (the closure only runs for that caller), never into a
// joiner's.
func (e *Executor) RunParamsOn(ctx context.Context, ds string, a Analysis, p Params) (interface{}, Outcome, error) {
	return value(e.answer(ctx, ds, a, p))
}

// answer walks RunParamsOn's ladder. The cache holds one
// *serving.Answer per computed value, and every way out of it (a hit,
// a shared flight) hands on that same answer.
func (e *Executor) answer(ctx context.Context, ds string, a Analysis, p Params) (*serving.Answer, Outcome, error) {
	name := a.Name()
	ctx = obs.WithAnalysis(obs.WithDataset(ctx, ds), name)
	repo, rev, err := e.resolve(ds)
	if err != nil {
		return nil, Outcome{}, err
	}
	logical := Key(a, p)
	scope := scopeName(ds, name)
	var br *resilience.Breaker
	if e.breakers != nil {
		br = e.breakers.Get(scope)
	}
	// guarded runs in the flight (fctx carries its cancellation) and
	// records into the trace of the request that started it.
	guarded := func(fctx context.Context) (interface{}, error) {
		bsp := obs.StartSpan(ctx, "breaker")
		if br != nil && !br.Allow() {
			bsp.EndAs("breaker-open")
			return nil, resilience.ErrOpen
		}
		bsp.EndAs("breaker-allow")
		err := e.faults.ComputeError("compute/" + scope)
		var v interface{}
		if err == nil {
			csp := obs.StartSpan(ctx, "compute")
			e.countCompute(scope)
			v, err = a.Compute(fctx, repo.Restrict(a.Scope(p)), p)
			switch {
			case err == nil:
				e.recordIterations(ds, v)
				csp.End()
			case errors.Is(err, context.Canceled):
				csp.EndAs("compute-canceled")
			default:
				csp.EndAs("compute-error")
			}
		}
		if br != nil {
			br.Record(!IsServerFailure(err))
		}
		if IsServerFailure(err) {
			e.countFailure(scope)
		}
		if err != nil {
			return nil, err
		}
		return serving.NewAnswer(v), nil
	}

	key := physicalKey(ds, repo.Digest(a.Scope(p)), logical)
	v, served, err := e.cache.DoCtxFn(ctx, key, guarded)
	if err != nil {
		return nil, Outcome{}, err
	}
	out := Outcome{Key: logical, Dataset: ds, Revision: rev, Cache: "miss"}
	if served {
		out.Cache = "hit"
		e.countHit(scope)
	} else {
		e.countMiss(scope)
	}
	return v.(*serving.Answer), out, nil
}

// WarmDataset pre-computes every registered Warmer analysis's
// WarmParams against dataset ds in registration order, returning the
// first failure. The results land in the cache under the exact keys
// live requests use, so the first real request after readiness — or
// after an ingest — is a hit. Each dataset's warmup budget is its own:
// warming one dataset never touches another's entries or breakers.
func (e *Executor) WarmDataset(ctx context.Context, ds string) error {
	for _, name := range e.reg.Names() {
		a, ok := e.reg.Get(name)
		if !ok {
			continue
		}
		w, ok := a.(Warmer)
		if !ok {
			continue
		}
		for _, p := range w.WarmParams() {
			if err := p.Validate(); err != nil {
				return err
			}
			if _, _, err := e.RunParamsOn(ctx, ds, a, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// InvalidateDataset drops every cache entry belonging to ds, returning
// the number of entries dropped. The idle reaper calls it to give a
// quiet tenant's answers back; the dataset's scope counters stay.
func (e *Executor) InvalidateDataset(ds string) int {
	prefix := ds + "@"
	return e.cache.Invalidate(func(key string) bool { return strings.HasPrefix(key, prefix) })
}

// DropDatasetServingState removes every trace of ds from the serving
// layer on dataset DELETE: cache entries AND the scope's cache
// counters (a deleted tenant must vanish from the csm_ families, not
// linger at its last values), executor stats
// scopes, and "<ds>/<analysis>" breakers. Returns the number of cache
// entries dropped. The default dataset's serving state is never
// dropped here — it cannot be deleted.
func (e *Executor) DropDatasetServingState(ds string) int {
	if ds == dataset.DefaultID {
		return 0
	}
	n := e.cache.DropScope(ds)
	if e.breakers != nil {
		e.breakers.DropPrefix(ds + "/")
	}
	e.mu.Lock()
	for scope := range e.stats {
		if d, _ := SplitScope(scope); d == ds {
			delete(e.stats, scope)
		}
	}
	delete(e.refresh, ds)
	e.mu.Unlock()
	return n
}

func (e *Executor) countCompute(scope string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.statLocked(scope).computes++
}

func (e *Executor) countFailure(scope string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.statLocked(scope).failures++
}

func (e *Executor) countHit(scope string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.statLocked(scope).hits++
}

func (e *Executor) countMiss(scope string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.statLocked(scope).misses++
}

// statLocked returns scope's counters; callers hold e.mu.
func (e *Executor) statLocked(scope string) *analysisStats {
	s, ok := e.stats[scope]
	if !ok {
		s = &analysisStats{}
		e.stats[scope] = s
	}
	return s
}

// Stats snapshots the executor counters.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := Stats{
		Analyses:     make(map[string]AnalysisStats, len(e.stats)),
		BatchCalls:   e.batchCalls,
		BatchItems:   e.batchItems,
		BatchWorkers: e.batchWorkers,
	}
	for scope, s := range e.stats {
		out.Analyses[scope] = AnalysisStats{
			Computes:    s.computes,
			Failures:    s.failures,
			CacheHits:   s.hits,
			CacheMisses: s.misses,
		}
	}
	for ds, s := range e.refresh {
		if out.Refresh == nil {
			out.Refresh = make(map[string]RefreshStats, len(e.refresh))
		}
		out.Refresh[ds] = RefreshStats{
			Delta:          s.delta,
			Full:           s.full,
			Invalidated:    s.invalidated,
			ColdIterations: s.coldIterations,
		}
	}
	return out
}
