package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/obs"
)

// DeltaAware is implemented by analyses that can judge whether a
// dataset delta can reach a cached result. The executor consults it
// during a delta refresh: results the analysis proves unaffected are
// migrated to the new revision's cache keys instead of being dropped
// and recomputed, so a retag of one material invalidates only the
// analyses and parameter scopes it can actually change.
type DeltaAware interface {
	// AffectedBy reports whether the result cached under paramKey (the
	// Params.CacheKey() part of the logical key, "" when the analysis
	// takes no parameters) could differ after d is applied. It must err
	// on the side of true: a false negative serves a wrong result under
	// the new revision.
	AffectedBy(paramKey string, d *dataset.Delta) bool
}

// ErrColdCompute is the sentinel a WarmStarter returns to decline a
// warm recompute; the executor falls back to a cold Compute.
var ErrColdCompute = errors.New("engine: warm compute declined, run cold")

// WarmStarter is implemented by analyses whose background stale
// refresh can be answered from the value being served stale. That
// value belongs to the revision being refreshed, so the repository is
// unchanged. The contract is strict: a non-error return from
// ComputeWarm MUST be byte-identical to what Compute would return for
// the same (repo, p); implementations return ErrColdCompute when they
// cannot prove it. Performance is the only thing a warm start may
// change.
type WarmStarter interface {
	// ComputeWarm recomputes the analysis from prior, the value Compute
	// (or a previous ComputeWarm) returned for the same revision.
	ComputeWarm(ctx context.Context, repo *materials.Repository, p Params, prior interface{}) (interface{}, error)
}

// ConvergenceReporter is implemented by analysis RESULTS whose compute
// is iterative (the NNMF factorizations); the executor reads it after
// a successful compute to export iterations-to-converge, split warm
// vs cold, through the csm_refresh_* metric families.
type ConvergenceReporter interface {
	ConvergenceIterations() int
}

// maxPriors bounds the executor's warm-start seed store: one prior per
// key with a stale refresh pending; beyond it new seeds are declined
// (the refresh just runs cold).
const maxPriors = 256

// refreshStats counts one dataset's refresh activity.
type refreshStats struct {
	delta            uint64
	full             uint64
	invalidatedFresh uint64
	invalidatedStale uint64
	migrated         uint64
	warmStarts       uint64
	warmFallbacks    uint64
	warmIterations   uint64
	coldIterations   uint64
}

// RefreshStats is the JSON form of one dataset's refresh counters.
type RefreshStats struct {
	// Delta and Full count refreshes by kind.
	Delta uint64 `json:"delta"`
	Full  uint64 `json:"full"`
	// InvalidatedFresh/InvalidatedStale count cache entries dropped by
	// refreshes, per store.
	InvalidatedFresh uint64 `json:"invalidated_fresh"`
	InvalidatedStale uint64 `json:"invalidated_stale"`
	// Migrated counts fresh entries carried to a new revision unchanged.
	Migrated uint64 `json:"migrated"`
	// WarmStarts counts stale refreshes answered by ComputeWarm;
	// WarmFallbacks counts priors that were declined (cold recompute ran
	// instead).
	WarmStarts    uint64 `json:"warm_starts"`
	WarmFallbacks uint64 `json:"warm_fallbacks"`
	// WarmIterations/ColdIterations accumulate iterations-to-converge
	// reported by iterative results, split by compute mode.
	WarmIterations uint64 `json:"warm_iterations"`
	ColdIterations uint64 `json:"cold_iterations"`
}

// DeltaOutcome summarizes one refresh for the ingest response meta and
// the tests asserting invalidation precision.
type DeltaOutcome struct {
	// Full reports that the refresh fell back to whole-dataset
	// invalidation (no delta available).
	Full bool `json:"full"`
	// InvalidatedFresh/InvalidatedStale are the cache entries dropped.
	InvalidatedFresh int `json:"invalidated_fresh"`
	InvalidatedStale int `json:"invalidated_stale"`
	// Migrated is the number of fresh entries carried forward to the
	// new revision because their analysis proved them unaffected.
	Migrated int `json:"migrated"`
}

// Invalidated is the total number of cache entries dropped.
func (o DeltaOutcome) Invalidated() int { return o.InvalidatedFresh + o.InvalidatedStale }

// ApplyDelta reconciles the serving layer with a freshly applied
// dataset revision. When the snapshot carries a Delta (it came from
// Registry.Apply), the refresh is delta-driven: every cached entry of
// the dataset's previous revisions is classified by its analysis —
// provably unaffected results are MIGRATED to the new revision's keys
// (keeping their LRU positions and encoded bytes; no recompute, no
// cold cache), and affected results are dropped, to be recomputed
// cold on their next read. Snapshots without a delta (full PUT
// re-ingest, LoadDir) degrade to RefreshFull. No-op in single-repo
// mode.
func (e *Executor) ApplyDelta(ctx context.Context, ds string, snap *dataset.Snapshot) DeltaOutcome {
	if e.datasets == nil || e.cache == nil {
		return DeltaOutcome{}
	}
	d := snap.Delta()
	if d == nil {
		return e.RefreshFull(ctx, ds, snap.Revision())
	}
	start := obs.Now(ctx)
	prefix := ds + "@"
	newPrefix := fmt.Sprintf("%s@%d|", ds, snap.Revision())
	e.dropPriors(ds)

	sum := e.cache.Rekey(func(key string) string {
		if !strings.HasPrefix(key, prefix) || strings.HasPrefix(key, newPrefix) {
			return key
		}
		name, paramKey, ok := splitPhysical(key)
		if !ok {
			return "" // malformed for this dataset: drop
		}
		a, registered := e.reg.Get(name)
		if !registered {
			return ""
		}
		if da, aware := a.(DeltaAware); aware && !da.AffectedBy(paramKey, d) {
			return newPrefix + name + joinParam(paramKey)
		}
		return ""
	})

	out := DeltaOutcome{
		InvalidatedFresh: sum.DroppedFresh,
		InvalidatedStale: sum.DroppedStale,
		Migrated:         sum.MovedFresh,
	}
	obs.AddSpan(ctx, "refresh-delta", start)
	e.countRefresh(ds, true, out)
	return out
}

// RefreshFull invalidates every cache and stale entry of ds except
// revision keep, recording the sweep as a refresh-full span and in the
// csm_refresh_* counters. It is the metrics-aware face of
// InvalidateDataset, used by the full re-ingest path.
func (e *Executor) RefreshFull(ctx context.Context, ds string, keep uint64) DeltaOutcome {
	if e.datasets == nil || e.cache == nil {
		return DeltaOutcome{Full: true}
	}
	start := obs.Now(ctx)
	e.dropPriors(ds)
	fresh, stale := e.invalidateDatasetDetail(ds, keep)
	obs.AddSpan(ctx, "refresh-full", start)
	out := DeltaOutcome{Full: true, InvalidatedFresh: fresh, InvalidatedStale: stale}
	e.countRefresh(ds, false, out)
	return out
}

// splitPhysical decomposes a physical cache key
// "<ds>@<rev>|<name>[|<paramKey>]" into its analysis name and
// parameter key.
func splitPhysical(key string) (name, paramKey string, ok bool) {
	bar := strings.IndexByte(key, '|')
	if bar < 0 {
		return "", "", false
	}
	logical := key[bar+1:]
	if i := strings.IndexByte(logical, '|'); i >= 0 {
		return logical[:i], logical[i+1:], true
	}
	return logical, "", true
}

// joinParam re-attaches a parameter key to an analysis name.
func joinParam(paramKey string) string {
	if paramKey == "" {
		return ""
	}
	return "|" + paramKey
}

// seedPrior retains val, the value a stale serve of key returned, as
// the seed of key's refresh. A key holds one seed (every value of a
// key is the same answer); the store is bounded at maxPriors.
func (e *Executor) seedPrior(key string, val interface{}) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.priors[key]; !exists && len(e.priors) < maxPriors {
		e.priors[key] = val
	}
}

// takePrior consumes the warm-start seed for key, if any.
func (e *Executor) takePrior(key string) (interface{}, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pr, ok := e.priors[key]
	if ok {
		delete(e.priors, key)
	}
	return pr, ok
}

// dropPriors discards every retained seed belonging to ds.
func (e *Executor) dropPriors(ds string) {
	prefix := ds + "@"
	e.mu.Lock()
	for k := range e.priors {
		if strings.HasPrefix(k, prefix) {
			delete(e.priors, k)
		}
	}
	e.mu.Unlock()
}

// computeWithPrior runs the analysis, preferring a warm recompute when
// a prior was seeded for key and the analysis supports it. A declined
// warm start (ErrColdCompute, or any non-context error) falls back to
// a cold Compute; context errors pass through so cancellation is not
// masked by a doomed cold retry. The boolean reports whether the warm
// result was adopted. Adopting a prior counts no compute for scope: it
// starts none.
func (e *Executor) computeWithPrior(ctx context.Context, ds, scope string, a Analysis, repo *materials.Repository, p Params, key string) (interface{}, bool, error) {
	if ws, warmable := a.(WarmStarter); warmable {
		if prior, ok := e.takePrior(key); ok {
			v, err := ws.ComputeWarm(ctx, repo, p, prior)
			switch {
			case err == nil:
				e.countWarm(ds, true)
				return v, true, nil
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				return nil, false, err
			default:
				e.countWarm(ds, false)
			}
		}
	}
	e.countCompute(scope)
	v, err := a.Compute(ctx, repo, p)
	return v, false, err
}

// recordIterations accumulates a result's iterations-to-converge into
// the dataset's warm or cold bucket.
func (e *Executor) recordIterations(ds string, warm bool, v interface{}) {
	cr, ok := v.(ConvergenceReporter)
	if !ok {
		return
	}
	n := cr.ConvergenceIterations()
	if n <= 0 {
		return
	}
	e.mu.Lock()
	st := e.refreshLocked(ds)
	if warm {
		st.warmIterations += uint64(n)
	} else {
		st.coldIterations += uint64(n)
	}
	e.mu.Unlock()
}

func (e *Executor) countWarm(ds string, adopted bool) {
	e.mu.Lock()
	st := e.refreshLocked(ds)
	if adopted {
		st.warmStarts++
	} else {
		st.warmFallbacks++
	}
	e.mu.Unlock()
}

func (e *Executor) countRefresh(ds string, delta bool, out DeltaOutcome) {
	e.mu.Lock()
	st := e.refreshLocked(ds)
	if delta {
		st.delta++
	} else {
		st.full++
	}
	st.invalidatedFresh += uint64(out.InvalidatedFresh)
	st.invalidatedStale += uint64(out.InvalidatedStale)
	st.migrated += uint64(out.Migrated)
	e.mu.Unlock()
}

// refreshLocked returns ds's refresh counters; callers hold e.mu.
func (e *Executor) refreshLocked(ds string) *refreshStats {
	s, ok := e.refresh[ds]
	if !ok {
		s = &refreshStats{}
		e.refresh[ds] = s
	}
	return s
}
