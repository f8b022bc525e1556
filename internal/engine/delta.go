package engine

import (
	"context"
	"encoding/hex"
	"strings"

	"csmaterials/internal/dataset"
	"csmaterials/internal/obs"
)

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
	coldIterations uint64
}

// RefreshStats is the JSON form of one dataset's refresh counters.
type RefreshStats struct {
	// Delta and Full count refreshes by the ingest behind them: a PATCH
	// (its snapshot carries a delta) or a PUT.
	Delta uint64 `json:"delta"`
	Full  uint64 `json:"full"`
	// Invalidated counts cache entries dropped by refreshes.
	Invalidated uint64 `json:"invalidated"`
	// ColdIterations accumulates iterations-to-converge reported by
	// iterative results; every compute starts cold.
	ColdIterations uint64 `json:"cold_iterations"`
}

// DeltaOutcome summarizes one refresh for the ingest response meta.
type DeltaOutcome struct {
	// Invalidated is the number of cache entries dropped: answers whose
	// input the dataset no longer holds.
	Invalidated int `json:"invalidated"`
}

// ApplyDelta reconciles the serving layer with a newly installed
// revision of ds, from a PATCH or a PUT alike. Each held answer is
// keyed by the digest of the courses it reads, so an answer whose
// input the new revision keeps is still found, and one whose input
// changed is never read again. The refresh drops the latter, to bound
// what the cache holds: every entry of ds whose digest is the digest of
// no scope of the registry's current snapshot, which may be newer than
// snap. So a late or reordered refresh can cost a recompute, never a
// wrong answer. snap only tells a PATCH's refresh (it carries a delta)
// from a PUT's in the counters.
func (e *Executor) ApplyDelta(ctx context.Context, ds string, snap *dataset.Snapshot) DeltaOutcome {
	start := obs.Now(ctx)
	live := map[string]bool{}
	if cur, ok := e.datasets.Get(ds); ok {
		repo := cur.Repo()
		for _, s := range repo.Scopes() {
			d := repo.Digest(s)
			live[hex.EncodeToString(d[:])] = true
		}
	}
	prefix := ds + "@"
	out := DeltaOutcome{Invalidated: e.cache.Invalidate(func(key string) bool {
		rest, ok := strings.CutPrefix(key, prefix)
		if !ok {
			return false
		}
		digest, _, _ := strings.Cut(rest, "|")
		return !live[digest]
	})}
	obs.AddSpan(ctx, "refresh", start)
	e.countRefresh(ds, snap.Delta() != nil, out)
	return out
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
