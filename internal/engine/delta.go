package engine

import (
	"context"
	"fmt"
	"strings"

	"csmaterials/internal/dataset"
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

// ConvergenceReporter is implemented by analysis RESULTS whose compute
// is iterative (the NNMF factorizations); the executor reads it after
// a successful compute to export iterations-to-converge through the
// csm_refresh_iterations_total family.
type ConvergenceReporter interface {
	ConvergenceIterations() int
}

// refreshStats counts one dataset's refresh activity.
type refreshStats struct {
	delta          uint64
	full           uint64
	invalidated    uint64
	migrated       uint64
	coldIterations uint64
}

// RefreshStats is the JSON form of one dataset's refresh counters.
type RefreshStats struct {
	// Delta and Full count refreshes by kind.
	Delta uint64 `json:"delta"`
	Full  uint64 `json:"full"`
	// Invalidated counts cache entries dropped by refreshes.
	Invalidated uint64 `json:"invalidated"`
	// Migrated counts entries carried to a new revision unchanged.
	Migrated uint64 `json:"migrated"`
	// ColdIterations accumulates iterations-to-converge reported by
	// iterative results; every compute starts cold.
	ColdIterations uint64 `json:"cold_iterations"`
}

// DeltaOutcome summarizes one refresh for the ingest response meta and
// the tests asserting invalidation precision.
type DeltaOutcome struct {
	// Full reports that the refresh fell back to whole-dataset
	// invalidation (no delta available).
	Full bool `json:"full"`
	// Invalidated is the number of cache entries dropped.
	Invalidated int `json:"invalidated"`
	// Migrated is the number of entries carried forward to the new
	// revision because their analysis proved them unaffected.
	Migrated int `json:"migrated"`
}

// ApplyDelta reconciles the serving layer with a freshly applied
// dataset revision. When the snapshot carries a Delta (it came from
// Registry.Apply), the refresh is delta-driven: every cached entry of
// the dataset's previous revisions is classified by its analysis —
// provably unaffected results are MIGRATED to the new revision's keys
// (keeping their LRU positions and encoded bytes; no recompute, no
// cold cache), and affected results are dropped, to be recomputed
// cold on their next read. Snapshots without a delta (full PUT
// re-ingest, LoadDir) degrade to RefreshFull.
func (e *Executor) ApplyDelta(ctx context.Context, ds string, snap *dataset.Snapshot) DeltaOutcome {
	d := snap.Delta()
	if d == nil {
		return e.RefreshFull(ctx, ds, snap.Revision())
	}
	start := obs.Now(ctx)
	prefix := ds + "@"
	newPrefix := fmt.Sprintf("%s@%d|", ds, snap.Revision())

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

	out := DeltaOutcome{Invalidated: sum.Dropped, Migrated: sum.Moved}
	obs.AddSpan(ctx, "refresh-delta", start)
	e.countRefresh(ds, true, out)
	return out
}

// RefreshFull invalidates every cache entry of ds except revision keep,
// recording the sweep as a refresh-full span and in the csm_refresh_*
// counters. It is the metrics-aware face of InvalidateDataset, used by
// the full re-ingest path.
func (e *Executor) RefreshFull(ctx context.Context, ds string, keep uint64) DeltaOutcome {
	start := obs.Now(ctx)
	out := DeltaOutcome{Full: true, Invalidated: e.InvalidateDataset(ds, keep)}
	obs.AddSpan(ctx, "refresh-full", start)
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

// recordIterations accumulates a result's iterations-to-converge into
// the dataset's counters.
func (e *Executor) recordIterations(ds string, v interface{}) {
	cr, ok := v.(ConvergenceReporter)
	if !ok {
		return
	}
	n := cr.ConvergenceIterations()
	if n <= 0 {
		return
	}
	e.mu.Lock()
	e.refreshLocked(ds).coldIterations += uint64(n)
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
	st.invalidated += uint64(out.Invalidated)
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
