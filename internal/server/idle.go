package server

import (
	"context"
	"time"

	"csmaterials/internal/dataset"
)

// Idle reclamation. A tenant that stops querying still pins a lazy
// search index and warm cache entries. When Options.IdleTTL is
// positive, datasets (except the default — it backs the un-scoped
// aliases and gates /readyz) that have gone unqueried for the TTL have
// both reclaimed: the search index is dropped, the dataset's cache
// entries (all revisions) are invalidated, and /readyz
// reports the dataset "idle". Per-scope cache counters survive — the
// dataset still exists; only its warm state is released. The next
// query rebuilds lazily and flips the state back to "ready". The clock
// is injectable (Options.clock) so tests drive reclamation
// deterministically; the background reaper only runs when cmd/serve
// starts it via StartIdleReaper.

// touchDataset records query activity on id, if the registry holds
// it, and, if the dataset had been idle-reclaimed, marks it live again.
func (s *Server) touchDataset(id string) {
	if s.idleTTL <= 0 {
		return
	}
	s.idleMu.Lock()
	if _, ok := s.datasets.Get(id); ok { // under idleMu: no DELETE comes in between
		s.lastAccess[id] = s.clock()
	}
	wasReclaimed := s.reclaimed[id]
	if wasReclaimed {
		delete(s.reclaimed, id)
	}
	s.idleMu.Unlock()
	if wasReclaimed {
		s.setDatasetState(id, DatasetReady{Status: "ready"})
	}
}

// dropIdleTracking forgets a deleted dataset's idle accounting.
func (s *Server) dropIdleTracking(id string) {
	s.idleMu.Lock()
	delete(s.lastAccess, id)
	delete(s.reclaimed, id)
	delete(s.idleReclaims, id)
	s.idleMu.Unlock()
}

// reclaimIdle sweeps every non-default dataset idle at now and
// reclaims its warm state, returning the IDs reclaimed this pass.
func (s *Server) reclaimIdle(now time.Time) []string {
	if s.idleTTL <= 0 {
		return nil
	}
	var idle []string
	s.idleMu.Lock()
	for _, id := range s.datasets.IDs() {
		if id == dataset.DefaultID || s.reclaimed[id] {
			continue
		}
		last, touched := s.lastAccess[id]
		if !touched {
			// Never queried: start the idle clock at first sight so a
			// dataset ingested and abandoned is still reclaimed.
			s.lastAccess[id] = now
			continue
		}
		if now.Sub(last) >= s.idleTTL {
			s.reclaimed[id] = true
			s.idleReclaims[id]++
			idle = append(idle, id)
		}
	}
	s.idleMu.Unlock()
	for _, id := range idle {
		s.dropSearcher(id)
		s.exec.InvalidateDataset(id)
		s.setDatasetState(id, DatasetReady{Status: "idle"})
	}
	return idle
}

// idleReclaimTotals snapshots the per-dataset reclaim counters for the
// csm_dataset_idle_reclaims_total family.
func (s *Server) idleReclaimTotals() map[string]uint64 {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	out := make(map[string]uint64, len(s.idleReclaims))
	for id, n := range s.idleReclaims {
		out[id] = n
	}
	return out
}

// StartIdleReaper launches the background sweep (every IdleTTL/4,
// bounded to [1s, 1m]) until ctx is done. cmd/serve calls this;
// servers built without it never start the goroutine, so tests and
// libraries stay leak-free and drive reclaimIdle directly.
func (s *Server) StartIdleReaper(ctx context.Context) {
	if s.idleTTL <= 0 {
		return
	}
	interval := s.idleTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.reclaimIdle(s.clock())
			}
		}
	}()
}
