package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
)

// Dataset lifecycle endpoints: the catalog (GET /api/v1/datasets),
// per-dataset metadata (GET /api/v1/datasets/{ds}), live ingest
// (PUT /api/v1/datasets/{ds}), incremental deltas
// (PATCH /api/v1/datasets/{ds}), and deletion
// (DELETE /api/v1/datasets/{ds}). Ingest is a full-document replace:
// the body is the same {"courses": [...]} document
// materials.Repository.SaveJSON writes and -data-dir loads, validated
// in full (every tag against CS2013/PDC12, material IDs globally
// unique) before the registry's snapshot pointer swaps. Requests
// in flight across the swap finish against the snapshot they resolved;
// the cache entries whose input changed are dropped, touching no other
// dataset.

// MaxDatasetBody bounds a PUT /api/v1/datasets/{ds} body.
const MaxDatasetBody = 4 << 20

// MaxPatchBody bounds a PATCH /api/v1/datasets/{ds} body. Deltas are
// small by nature — a few events, not a corpus.
const MaxPatchBody = 1 << 20

// IngestMeta is the meta block of PUT /api/v1/datasets/{ds} responses.
type IngestMeta struct {
	// Invalidated counts the cache entries this ingest dropped: the
	// answers whose input changed.
	Invalidated int `json:"invalidated"`
}

// PatchRequest is the PATCH /api/v1/datasets/{ds} body: an ordered
// list of classification events applied atomically on top of the
// dataset's current revision.
type PatchRequest struct {
	Events []dataset.Event `json:"events"`
}

// PatchMeta is the meta block of PATCH /api/v1/datasets/{ds}
// responses: what the delta touched and what the serving layer did
// about it.
type PatchMeta struct {
	// Delta summarizes the applied events (courses, tags, groups
	// touched; add/remove/retag counts).
	Delta *dataset.Delta `json:"delta"`
	// Refresh reports the cache reconciliation: the entries dropped
	// because their input changed.
	Refresh engine.DeltaOutcome `json:"refresh"`
}

// DatasetDeleted is the DELETE /api/v1/datasets/{ds} data payload.
type DatasetDeleted struct {
	ID string `json:"id"`
	// Invalidated counts the dataset's cache entries dropped with it.
	Invalidated int `json:"invalidated"`
}

// handleDatasetList serves the paginated dataset catalog in
// registration order (the default dataset is always first).
func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := parsePage(r.URL.Query(), 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	metas := s.datasets.List()
	lo, hi := pageBounds(len(metas), limit, offset)
	writeData(w, http.StatusOK, metas[lo:hi], ListMeta{Total: len(metas), Limit: limit, Offset: offset})
}

// handleDatasetGet serves one dataset's metadata (with ownership).
func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot(w, r)
	if snap == nil {
		return
	}
	meta, ok := s.datasets.MetaOf(snap.ID())
	if !ok { // deleted since the snapshot resolved; serve what it saw
		meta = snap.Meta()
	}
	writeData(w, http.StatusOK, meta, nil)
}

// handleDatasetPut ingests (or replaces) a named dataset. The body is
// read once into a buffer of its Content-Length and parsed in one pass
// (dataset.DecodeDocument), whose strings are shared with the
// vocabulary and with each other, so a stored corpus holds one copy of
// each. The document is validated in full before anything is
// published; a failed ingest leaves the previous revision serving. On
// success the new snapshot is live for every subsequent request, the
// cache entries whose input changed are dropped (an answer whose
// courses the document left as they were stays held), and the
// dataset's warmup re-runs in the background.
func (s *Server) handleDatasetPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("ds")
	keyName, ok := s.authorizeMutation(w, r, id)
	if !ok {
		return
	}
	size := min(max(r.ContentLength, 0), MaxDatasetBody)
	doc, err := dataset.DecodeDocument(http.MaxBytesReader(w, r.Body, MaxDatasetBody), int(size))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad dataset document: %v", err)
		return
	}
	snap, err := s.datasets.Put(id, doc.Courses)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	if keyName != "" && s.datasets.Attrs(id).Owner == "" {
		// First keyed ingest of an unowned dataset claims it; the owner
		// survives re-ingest revisions and Delete.
		s.datasets.SetOwner(id, keyName)
	}
	s.retuneTenancy()
	s.touchDataset(id)
	outcome := s.exec.ApplyDelta(r.Context(), id, snap)
	if s.noWarmup {
		s.setDatasetState(id, DatasetReady{Status: "ready"})
	} else {
		s.setDatasetState(id, DatasetReady{Status: "warming"})
		s.spawnBackground(func(ctx context.Context) { _ = s.warmDataset(ctx, id) })
	}
	meta, ok := s.datasets.MetaOf(id)
	if !ok { // deleted in the same instant; report the revision ingested
		meta = snap.Meta()
	}
	writeData(w, http.StatusOK, meta, IngestMeta{Invalidated: outcome.Invalidated})
}

// handleDatasetPatch applies a delta — an ordered event list — on top
// of the dataset's current revision, behind the same auth/ownership
// gates as PUT, and refreshes the serving layer as PUT does: answers
// whose input the events left as it was stay held (encoded bytes and
// all), and the rest drop, to recompute cold on their next read.
// Concurrent PATCHes race on the revision; the loser retries inside
// Registry.Apply and, if the dataset keeps moving, answers 409
// dataset_conflict.
func (s *Server) handleDatasetPatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("ds")
	keyName, ok := s.authorizeMutation(w, r, id)
	if !ok {
		return
	}
	var req PatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxPatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad delta body: %v", err)
		return
	}
	if len(req.Events) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "empty delta: pass events")
		return
	}
	snap, err := s.datasets.Apply(id, req.Events)
	if err != nil {
		switch {
		case errors.Is(err, dataset.ErrNotFound):
			writeError(w, http.StatusNotFound, "not_found", "unknown dataset %q", id)
		case errors.Is(err, dataset.ErrConflict):
			writeError(w, http.StatusConflict, "dataset_conflict", "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		}
		return
	}
	if keyName != "" && s.datasets.Attrs(id).Owner == "" {
		s.datasets.SetOwner(id, keyName)
	}
	s.touchDataset(id)
	outcome := s.exec.ApplyDelta(r.Context(), id, snap)
	if s.noWarmup {
		s.setDatasetState(id, DatasetReady{Status: "ready"})
	} else {
		s.setDatasetState(id, DatasetReady{Status: "warming"})
		s.spawnBackground(func(ctx context.Context) { _ = s.warmDataset(ctx, id) })
	}
	meta, ok := s.datasets.MetaOf(id)
	if !ok {
		meta = snap.Meta()
	}
	writeData(w, http.StatusOK, meta, PatchMeta{Delta: snap.Delta(), Refresh: outcome})
}

// handleDatasetDelete removes a dataset and every trace of its serving
// state: cache entries (all revisions), search index, and readiness
// entry. The default dataset is protected (409 dataset_protected); its
// revision counter — like every deleted dataset's — survives, so a
// re-ingest under the same name can never resurrect old cache entries.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("ds")
	if _, ok := s.authorizeMutation(w, r, id); !ok {
		return
	}
	if err := s.datasets.Delete(id); err != nil {
		switch {
		case errors.Is(err, dataset.ErrProtected):
			writeError(w, http.StatusConflict, "dataset_protected", "%v", err)
		case errors.Is(err, dataset.ErrNotFound):
			writeError(w, http.StatusNotFound, "not_found", "unknown dataset %q", id)
		default:
			writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		}
		return
	}
	invalidated := s.exec.DropDatasetServingState(id)
	s.dropSearcher(id)
	s.dropDatasetState(id)
	s.dropIdleTracking(id)
	s.limiter.DropTenant(id)
	s.tracer.DropDataset(id)
	s.retuneTenancy()
	writeData(w, http.StatusOK, DatasetDeleted{ID: id, Invalidated: invalidated}, nil)
}
