package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

// DefaultID names the dataset the synthetic seed corpus registers
// under. Un-scoped API routes are permanent aliases for it, and it can
// be re-ingested (gaining revisions) but never deleted.
const DefaultID = "default"

// MaxIDLength bounds dataset IDs; longer IDs are rejected at ingest.
const MaxIDLength = 64

// validID admits lowercase letters, digits, '.', '_', and '-', with an
// alphanumeric first byte. The excluded characters are load-bearing:
// '|' separates cache-key fields, '@' separates the dataset generation
// prefix, and '/' separates the dataset from the analysis in breaker
// and stats scope names.
func validID(id string) bool {
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		case i > 0 && (c == '.' || c == '_' || c == '-'):
		default:
			return false
		}
	}
	return id != ""
}

// Sentinel errors the API layer maps onto its taxonomy (404 / 409).
var (
	ErrNotFound  = errors.New("dataset: no such dataset")
	ErrProtected = errors.New(`dataset: the "default" dataset cannot be deleted`)
	// ErrConflict reports that Apply lost the base-snapshot race too
	// many times in a row (concurrent mutations of the same dataset).
	ErrConflict = errors.New("dataset: concurrent mutation conflict, retry")
)

// ValidateID reports whether id is a well-formed dataset name.
func ValidateID(id string) error {
	if id == "" {
		return fmt.Errorf("dataset: empty dataset ID")
	}
	if len(id) > MaxIDLength {
		return fmt.Errorf("dataset: dataset ID %q exceeds %d characters", id, MaxIDLength)
	}
	if !validID(id) {
		return fmt.Errorf("dataset: invalid dataset ID %q: want lowercase letters, digits, '.', '_', '-', starting with a letter or digit", id)
	}
	return nil
}

// Document is the ingest and on-disk dataset payload — the same
// {"courses": [...]} shape materials.Repository.SaveJSON writes, so a
// saved repository round-trips straight into PUT /api/v1/datasets/{id}.
type Document struct {
	Courses []*materials.Course `json:"courses"`
}

// Share rewrites the document's strings so that equal ones share
// storage (materials.Sharer): each tag becomes the shared vocabulary's
// own string, each valid type its constant, and each repeated author,
// language, course level or dataset name one copy. LoadDir and
// DecodeDocument's fallback call it on documents they decoded
// themselves; Put leaves its argument as it is, since callers share
// theirs (Courses is read-only).
func (d *Document) Share() {
	newSharer().Courses(d.Courses)
}

// newSharer returns a Sharer over the vocabulary every stored corpus
// ranks into.
func newSharer() *materials.Sharer {
	return materials.VocabularyOf(ontology.CS2013(), ontology.PDC12()).NewSharer()
}

// Meta is the catalog-facing description of one dataset revision.
type Meta struct {
	ID        string    `json:"id"`
	Revision  uint64    `json:"revision"`
	Courses   int       `json:"courses"`
	Materials int       `json:"materials"`
	LoadedAt  time.Time `json:"loaded_at"`
	Owner     string    `json:"owner,omitempty"`
}

// Attrs carries a dataset's tenancy metadata. It lives beside the
// snapshot (not inside it) so it survives re-ingest revisions AND
// Delete: like the revision counter, a deleted dataset's ownership is
// retained so re-creating the name cannot silently transfer it to
// another key holder.
type Attrs struct {
	// Owner is the name of the API key that owns the dataset's
	// mutating surface. Empty = unowned (any valid key may claim it).
	Owner string `json:"owner,omitempty"`
	// CacheBudget overrides the dataset's fair-share serving-cache
	// budget (entries). 0 = fair share.
	CacheBudget int `json:"cache_budget,omitempty"`
	// Weight scales the dataset's share of the admission quota.
	// <= 0 counts as 1.
	Weight float64 `json:"weight,omitempty"`
}

// Snapshot is one immutable dataset revision: a fully validated
// repository plus its identity. Replacing a dataset swaps the whole
// snapshot pointer, so a compute holding one can never observe a
// half-ingested corpus (no torn reads).
type Snapshot struct {
	id       string
	revision uint64
	repo     *materials.Repository
	loadedAt time.Time
	// delta summarizes what changed from the previous revision when
	// this snapshot was produced by Apply; nil for full ingests (Put),
	// whose blast radius is the whole dataset.
	delta *Delta
}

// ID returns the dataset name.
func (s *Snapshot) ID() string { return s.id }

// Revision returns the snapshot's monotonic revision (1-based per ID).
func (s *Snapshot) Revision() uint64 { return s.revision }

// Repo returns the snapshot's repository; treat it as read-only.
func (s *Snapshot) Repo() *materials.Repository { return s.repo }

// LoadedAt returns when the snapshot was registered (zero when the
// registry was built without a clock).
func (s *Snapshot) LoadedAt() time.Time { return s.loadedAt }

// Delta returns the classification-event summary that produced this
// revision, or nil when the revision came from a full ingest (Put,
// LoadDir, the seed corpus). A nil Delta means "assume everything
// changed".
func (s *Snapshot) Delta() *Delta { return s.delta }

// Meta summarizes the snapshot for the catalog.
func (s *Snapshot) Meta() Meta {
	return Meta{
		ID:        s.id,
		Revision:  s.revision,
		Courses:   len(s.repo.Courses()),
		Materials: s.repo.NumMaterials(),
		LoadedAt:  s.loadedAt,
	}
}

// Registry holds named, versioned datasets. Lookups return immutable
// snapshots; Put atomically replaces a dataset's snapshot under a new
// revision. Revision counters are per-ID, monotonic, and survive
// Delete, so a cache key minted for any past revision can never
// collide with a future one even if the same name is re-ingested.
type Registry struct {
	clock func() time.Time

	mu    sync.RWMutex
	snaps map[string]*Snapshot
	order []string // registration order, for deterministic catalogs
	revs  map[string]uint64
	attrs map[string]Attrs // survives Delete, like revs
}

// NewRegistry returns a registry with the synthetic seed corpus
// registered as DefaultID at revision 1. The clock stamps LoadedAt;
// nil leaves timestamps zero (deterministic builds, tests).
func NewRegistry(clock func() time.Time) *Registry {
	if clock == nil {
		clock = func() time.Time { return time.Time{} }
	}
	r := &Registry{
		clock: clock,
		snaps: map[string]*Snapshot{},
		revs:  map[string]uint64{},
		attrs: map[string]Attrs{},
	}
	r.snaps[DefaultID] = &Snapshot{id: DefaultID, revision: 1, repo: Repository(), loadedAt: r.clock()}
	r.order = append(r.order, DefaultID)
	r.revs[DefaultID] = 1
	return r
}

// Get returns the current snapshot of id.
func (r *Registry) Get(id string) (*Snapshot, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.snaps[id]
	return s, ok
}

// Default returns the snapshot of the default dataset (always present).
func (r *Registry) Default() *Snapshot {
	s, _ := r.Get(DefaultID)
	return s
}

// Put validates courses into a fresh repository (every material tag
// checked against CS2013/PDC12, material IDs unique) and atomically
// registers the result as id's next revision. The previous snapshot,
// if any, stays valid for computations already holding it.
func (r *Registry) Put(id string, courses []*materials.Course) (*Snapshot, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	if len(courses) == 0 {
		return nil, fmt.Errorf("dataset: dataset %q has no courses", id)
	}
	repo := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	if err := repo.AddCourses(courses...); err != nil {
		return nil, fmt.Errorf("dataset %q: %w", id, err)
	}
	ts := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	rev := r.revs[id] + 1
	r.revs[id] = rev
	if _, exists := r.snaps[id]; !exists {
		r.order = append(r.order, id)
	}
	snap := &Snapshot{id: id, revision: rev, repo: repo, loadedAt: ts}
	r.snaps[id] = snap
	return snap, nil
}

// Apply derives id's next revision from its current snapshot by
// applying classification events — materials added, removed, or
// retagged — without re-parsing or re-validating the untouched part
// of the corpus. The new snapshot carries a Delta summary (touched
// courses, tags, and groups) so the serving layer can invalidate
// precisely instead of sweeping the whole dataset.
//
// Apply is optimistic: the events are applied against the snapshot
// current at entry, and the swap is retried against a fresh base if a
// concurrent Put/Apply replaced it mid-derivation. Unknown datasets
// return ErrNotFound; persistent contention returns ErrConflict.
func (r *Registry) Apply(id string, events []Event) (*Snapshot, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("dataset: dataset %q: no events to apply", id)
	}
	const maxAttempts = 8
	for attempt := 0; attempt < maxAttempts; attempt++ {
		base, ok := r.Get(id)
		if !ok {
			return nil, ErrNotFound
		}
		repo, delta, err := applyEvents(base.repo, events)
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %w", id, err)
		}
		ts := r.clock()
		r.mu.Lock()
		if r.snaps[id] != base {
			// Lost the race: someone swapped the snapshot while we were
			// deriving. The events were written against a corpus that is
			// no longer current — re-derive from the new base.
			r.mu.Unlock()
			continue
		}
		rev := r.revs[id] + 1
		r.revs[id] = rev
		snap := &Snapshot{id: id, revision: rev, repo: repo, loadedAt: ts, delta: delta}
		r.snaps[id] = snap
		r.mu.Unlock()
		return snap, nil
	}
	return nil, ErrConflict
}

// Delete removes id from the registry. The default dataset is
// protected (ErrProtected); unknown IDs return ErrNotFound. The
// revision counter is retained so re-ingesting the same name continues
// the sequence instead of reusing old cache keys.
func (r *Registry) Delete(id string) error {
	if id == DefaultID {
		return ErrProtected
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.snaps[id]; !ok {
		return ErrNotFound
	}
	delete(r.snaps, id)
	for i, v := range r.order {
		if v == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return nil
}

// SetAttrs records id's tenancy metadata. Attrs are independent of the
// snapshot lifecycle: they may be set before the dataset is ingested
// (operator-declared tenants) and persist across re-ingest and Delete.
func (r *Registry) SetAttrs(id string, a Attrs) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attrs[id] = a
}

// SetOwner records owner for id, leaving the other attrs untouched.
func (r *Registry) SetOwner(id, owner string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.attrs[id]
	a.Owner = owner
	r.attrs[id] = a
}

// Attrs returns id's tenancy metadata (zero value when never set).
func (r *Registry) Attrs(id string) Attrs {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.attrs[id]
}

// MetaOf returns id's catalog entry with ownership composed in.
func (r *Registry) MetaOf(id string) (Meta, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.snaps[id]
	if !ok {
		return Meta{}, false
	}
	m := s.Meta()
	m.Owner = r.attrs[id].Owner
	return m, true
}

// List returns every registered dataset's Meta in registration order.
func (r *Registry) List() []Meta {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Meta, 0, len(r.order))
	for _, id := range r.order {
		m := r.snaps[id].Meta()
		m.Owner = r.attrs[id].Owner
		out = append(out, m)
	}
	return out
}

// IDs returns the registered dataset names in registration order.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Len returns the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.snaps)
}

// LoadDir registers every *.json file in dir as a dataset named after
// the file's stem ("pdc-2024.json" becomes dataset "pdc-2024"), in
// lexical filename order. Each file holds a Document, whose strings
// are shared (Document.Share) before Put. The first invalid file
// aborts the load; the datasets registered before it remain.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading %s: %w", dir, err)
	}
	var loaded []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return loaded, fmt.Errorf("dataset: %s: %w", e.Name(), err)
		}
		var doc Document
		if err := json.Unmarshal(raw, &doc); err != nil {
			return loaded, fmt.Errorf("dataset: %s: %w", e.Name(), err)
		}
		doc.Share()
		id := strings.TrimSuffix(e.Name(), ".json")
		if _, err := r.Put(id, doc.Courses); err != nil {
			return loaded, fmt.Errorf("dataset: %s: %w", e.Name(), err)
		}
		loaded = append(loaded, id)
	}
	return loaded, nil
}
