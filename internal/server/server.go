// Package server exposes the CS Materials reproduction as a versioned
// JSON HTTP API, mirroring the fact that CS Materials itself is a
// public web resource (§3.1): course listings and details, material
// search, the agreement and factorization analyses, anchor-point
// recommendations, audits, and the regenerated paper figures.
//
// The v1 API lives under /api/v1/ and answers every request with a
// {"data": ..., "meta": {...}} envelope; errors use
// {"error": {"code", "message"}}.
//
// Every analysis endpoint is a thin dispatch into internal/engine: the
// analyses register in an engine.Registry, and one executor runs them
// all through the serving ladder (cache → breaker-guarded singleflight
// compute). The server wires no cache keys or breakers per analysis —
// adding an analysis to the API is one registration in
// internal/engine/analyses. Routes, warmup, readiness, and metrics all
// iterate the registry.
//
// The API is multi-dataset: named, versioned datasets live in an
// internal/dataset.Registry — the synthetic seed corpus is dataset
// "default", more load from -data-dir at startup or arrive live via
// PUT /api/v1/datasets/{id}. GET /api/v1/datasets is the catalog, and
// every query/analysis route exists in a dataset-scoped form under
// /api/v1/datasets/{id}/...; the original un-scoped routes are
// permanent aliases for the default dataset and keep their exact
// response shapes. Caches, breakers, and stats partition per
// (dataset, analysis), so one dataset's failures or ingests never
// disturb another's serving behaviour.
//
// POST /api/v1/batch executes many analyses in one request on a
// bounded worker pool with per-item cache/singleflight/breaker
// semantics and per-item error envelopes, in deterministic input
// order; items may target any dataset. GET /readyz is the readiness
// probe (distinct from the /healthz liveness probe): it stays 503
// until the default dataset is loaded and every warmable analysis has
// been pre-computed, and reports per-dataset warmup state and breaker
// states. Every metric (per-route requests and latency, cache, shedder,
// breakers, executor, datasets and trace stages) is served at
// GET /metrics in Prometheus text format. Built on net/http only.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"csmaterials/internal/core"
	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/fleet"
	"csmaterials/internal/materials"
	"csmaterials/internal/obs"
	"csmaterials/internal/resilience"
	"csmaterials/internal/resilience/faultinject"
	"csmaterials/internal/search"
	"csmaterials/internal/serving"
)

// DefaultCacheSize bounds the analysis result cache when Options does
// not say otherwise: every answer the server holds counts against it.
const DefaultCacheSize = 512

// DefaultMaxInFlight bounds concurrently served API requests when
// Options does not say otherwise.
const DefaultMaxInFlight = 256

// Options configures a Server.
type Options struct {
	// CacheSize bounds the analysis result cache in entries. Zero
	// means DefaultCacheSize; a negative value disables retention
	// (singleflight deduplication still applies).
	CacheSize int
	// Logger receives the stacks of recovered handler panics; nil
	// discards them (useful in tests and benchmarks). Per-request
	// logging is Events.
	Logger *log.Logger
	// MaxInFlight bounds concurrently served /api/ requests; excess is
	// shed immediately with 429 + Retry-After. Zero means
	// DefaultMaxInFlight; a negative value disables shedding.
	MaxInFlight int
	// BreakerThreshold is the number of consecutive compute failures
	// that opens an analysis's circuit. Zero means
	// resilience.DefaultBreakerThreshold; a negative value disables
	// circuit breaking.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects before
	// half-opening for a probe. Zero means
	// resilience.DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// BatchWorkers bounds the POST /api/v1/batch worker pool. Zero or
	// negative means engine.DefaultBatchWorkers.
	BatchWorkers int
	// Faults, when non-nil, injects chaos (latency, errors, panics)
	// into API routes and compute paths. Tests and demos only.
	Faults *faultinject.Injector
	// Tracer records per-request traces and aggregates the per-stage
	// latency histograms behind GET /metrics. Nil means a default
	// tracer with a DefaultTraceBuffer-deep ring.
	Tracer *obs.Tracer
	// Events receives one structured JSON line per API request (the
	// wide-event access log). Nil disables per-request logging.
	Events *obs.Logger
	// DataDir, when non-empty, is a directory of *.json dataset
	// documents ({"courses": [...]}) registered at startup, each named
	// after its file stem. An invalid file fails construction.
	DataDir string
	// APIKeys, when non-nil, locks the mutating dataset surface
	// (PUT/DELETE /api/v1/datasets/{ds}) behind its keyring and applies
	// its dataset grants (ownership, cache budgets, weights) to the
	// registry. Nil keeps the open single-tenant behavior.
	APIKeys *KeysFile
	// ReloadKeys, when non-nil, re-reads the keyring source for
	// Server.ReloadAPIKeys (SIGHUP / POST /api/v1/keys/reload) — cmd/serve
	// wires it to re-load the -api-keys-file path. CSM_ADMIN_KEY is
	// folded in on every reload, matching startup. Nil makes the keyring
	// static: reload requests answer 409 keys_static.
	ReloadKeys func() (*KeysFile, error)
	// IdleTTL, when positive, reclaims a non-default dataset's lazy
	// search index and warm cache entries after it has gone unqueried
	// for that long (the reaper goroutine must be started with
	// StartIdleReaper). Zero disables idle reclamation.
	IdleTTL time.Duration
	// Fleet, when non-nil, joins this replica to a multi-replica fleet:
	// analysis requests route to their key's owner on the consistent-hash
	// ring, batches fan out by owner, and the csm_fleet_* families are
	// exposed. Nil keeps the
	// single-process behavior byte-for-byte. cmd/serve builds one from
	// -node-id and -peers.
	Fleet *fleet.Fleet

	// disableWarmup skips the background readiness warmup so tests can
	// drive the /readyz transition deterministically; PUT ingests then
	// mark their dataset ready without warming.
	disableWarmup bool
	// clock overrides the idle-reclamation time source (tests).
	clock func() time.Time
}

// Server holds the shared state behind the handlers. Dataset snapshots
// are immutable; the registry swaps pointers, so handlers resolve a
// snapshot once per request and work over a consistent corpus.
type Server struct {
	datasets *dataset.Registry
	exec     *engine.Executor
	mux      *http.ServeMux
	handler  http.Handler
	cache    *serving.Cache
	metrics  *serving.Metrics
	logger   *log.Logger
	noWarmup bool

	limiter  *resilience.TenantLimiter
	breakers *resilience.BreakerSet // nil when circuit breaking is disabled
	faults   *faultinject.Injector  // nil when no chaos is injected
	fleet    *fleet.Fleet           // nil in single-process mode

	// keysMu guards keys so ReloadAPIKeys (SIGHUP, POST
	// /api/v1/keys/reload) can swap the keyring under live traffic.
	keysMu     sync.RWMutex
	keys       map[string]APIKey // by secret; empty = open mode
	reloadKeys func() (*KeysFile, error)

	// Idle reclamation: lastAccess tracks per-dataset query activity
	// under an injectable clock; reclaimed datasets drop their search
	// index and cache entries until the next touch.
	clock        func() time.Time
	idleTTL      time.Duration
	idleMu       sync.Mutex
	lastAccess   map[string]time.Time
	reclaimed    map[string]bool
	idleReclaims map[string]uint64

	tracer *obs.Tracer
	events *obs.Logger // nil disables wide-event logging

	// searchers caches one search index per dataset revision, built
	// lazily on first search and invalidated by revision mismatch.
	searcherMu sync.Mutex
	searchers  map[string]searcherEntry

	readyMu  sync.Mutex
	ready    bool  // default dataset warmed (gates /readyz)
	readyErr error // default dataset warmup failure
	dsState  map[string]DatasetReady

	// Background warmup lifecycle: lifeCtx bounds every spawned warmup
	// (BindLifecycle swaps in the process signal context so shutdown
	// cancels in-flight warms) and bg tracks the goroutines so
	// DrainBackground can wait for them during graceful drain.
	lifeMu  sync.Mutex
	lifeCtx context.Context
	bg      sync.WaitGroup
}

// searcherEntry pins a search index to the dataset revision it indexed.
type searcherEntry struct {
	rev uint64
	eng *search.Engine
}

// New builds a server over the synthesized dataset with defaults.
func New() (*Server, error) { return NewWithOptions(Options{}) }

// NewWithOptions builds a server with explicit serving options.
func NewWithOptions(o Options) (*Server, error) {
	reg, err := analyses.Default()
	if err != nil {
		return nil, err
	}
	size := o.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	maxInFlight := o.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	} else if maxInFlight < 0 {
		maxInFlight = 0 // shedder treats 0 as unlimited
	}
	clock := o.clock
	if clock == nil {
		clock = time.Now
	}
	s := &Server{
		datasets:     dataset.NewRegistry(time.Now),
		mux:          http.NewServeMux(),
		cache:        serving.NewCache(size),
		metrics:      serving.NewMetrics(),
		logger:       o.Logger,
		noWarmup:     o.disableWarmup,
		limiter:      resilience.NewTenantLimiter(maxInFlight, 0),
		faults:       o.Faults,
		fleet:        o.Fleet,
		tracer:       o.Tracer,
		events:       o.Events,
		searchers:    map[string]searcherEntry{},
		dsState:      map[string]DatasetReady{},
		keys:         map[string]APIKey{},
		clock:        clock,
		idleTTL:      o.IdleTTL,
		lastAccess:   map[string]time.Time{},
		reclaimed:    map[string]bool{},
		idleReclaims: map[string]uint64{},
		lifeCtx:      context.Background(),
	}
	s.reloadKeys = o.ReloadKeys
	if o.APIKeys != nil {
		s.applyKeysFile(o.APIKeys)
	}
	if o.DataDir != "" {
		if _, err := s.datasets.LoadDir(o.DataDir); err != nil {
			return nil, err
		}
	}
	for _, id := range s.datasets.IDs() {
		s.dsState[id] = DatasetReady{Status: "starting"}
	}
	if s.tracer == nil {
		s.tracer = obs.NewTracer(DefaultTraceBuffer, nil)
	}
	if o.BreakerThreshold >= 0 {
		s.breakers = resilience.NewBreakerSet(o.BreakerThreshold, o.BreakerCooldown)
	}
	s.exec = engine.NewExecutor(reg, engine.ExecutorOptions{
		Datasets: s.datasets,
		Cache:    s.cache,
		Breakers: s.breakers,
		Faults:   o.Faults,
	})
	s.exec.SetBatchWorkers(o.BatchWorkers)
	s.retuneTenancy()
	s.routes()
	s.handler = serving.Recover(s.logger, http.HandlerFunc(s.route))
	if !o.disableWarmup {
		s.spawnBackground(s.warmup)
	}
	return s, nil
}

// BindLifecycle ties subsequently spawned background warmups to ctx —
// cmd/serve passes its signal context so a shutdown cancels in-flight
// warms instead of orphaning them. Warmups already running keep the
// context they were spawned under.
func (s *Server) BindLifecycle(ctx context.Context) {
	s.lifeMu.Lock()
	s.lifeCtx = ctx
	s.lifeMu.Unlock()
}

// spawnBackground runs fn on a tracked goroutine under the current
// lifecycle context; DrainBackground waits for every such goroutine.
func (s *Server) spawnBackground(fn func(ctx context.Context)) {
	s.lifeMu.Lock()
	ctx := s.lifeCtx
	s.lifeMu.Unlock()
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		fn(ctx)
	}()
}

// DrainBackground blocks until all tracked background work (startup and
// ingest-triggered warmups) has finished. cmd/serve calls it after the
// HTTP listener has shut down.
func (s *Server) DrainBackground() { s.bg.Wait() }

// Cache exposes the result cache (for benchmarks and tests).
func (s *Server) Cache() *serving.Cache { return s.cache }

// Engine exposes the analysis executor (registry access for tests and
// tooling; fakes install via Engine().Registry().Replace).
func (s *Server) Engine() *engine.Executor { return s.exec }

// Datasets exposes the dataset registry (for cmd/serve and tests).
func (s *Server) Datasets() *dataset.Registry { return s.datasets }

// Tracer exposes the request tracer (for cmd/serve and tests).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.handle("GET /healthz", http.HandlerFunc(s.handleHealth))
	s.handle("GET /readyz", http.HandlerFunc(s.handleReady))
	// The un-scoped query and analysis routes are permanent aliases for
	// the default dataset; each family also exists dataset-scoped under
	// /api/v1/datasets/{ds}/... (the {ds} path value is what routes the
	// handler to a snapshot — both registrations share one handler).
	for _, prefix := range []string{"/api/v1/", "/api/v1/datasets/{ds}/"} {
		s.handleAPI("GET "+prefix+"courses", http.HandlerFunc(s.handleCourses))
		s.handleAPI("GET "+prefix+"courses/{id}", http.HandlerFunc(s.handleCourse))
		s.handleAPI("GET "+prefix+"courses/{id}/{view}", http.HandlerFunc(s.handleCourseView))
		s.handleAPI("GET "+prefix+"search", http.HandlerFunc(s.handleSearch))
		s.handleAPI("GET "+prefix+"figures/{id}", http.HandlerFunc(s.handleFigure))
		// Every registered analysis is a GET route by name; the handler
		// is one generic dispatch, so the route set IS the registry.
		for _, name := range s.exec.Registry().Names() {
			name := name
			s.handleAPI("GET "+prefix+name, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				s.handleAnalysis(w, r, name, r.URL.Query())
			}))
		}
	}
	s.handleAPI("POST /api/v1/batch", http.HandlerFunc(s.handleBatch))
	s.handleAPI("GET /api/v1/fleet", http.HandlerFunc(s.handleFleet))
	s.handleAPI("GET /api/v1/datasets", http.HandlerFunc(s.handleDatasetList))
	s.handleAPI("GET /api/v1/datasets/{ds}", http.HandlerFunc(s.handleDatasetGet))
	s.handleAPI("PUT /api/v1/datasets/{ds}", http.HandlerFunc(s.handleDatasetPut))
	s.handleAPI("PATCH /api/v1/datasets/{ds}", http.HandlerFunc(s.handleDatasetPatch))
	s.handleAPI("DELETE /api/v1/datasets/{ds}", http.HandlerFunc(s.handleDatasetDelete))
	s.handleAPI("POST /api/v1/keys/reload", http.HandlerFunc(s.handleKeysReload))
	s.handle("GET /metrics", http.HandlerFunc(s.handleProm))
	s.handle("GET /debug/trace", http.HandlerFunc(s.handleTraceList))
	s.handle("GET /debug/trace/{id}", http.HandlerFunc(s.handleTrace))
}

// handle registers pattern with per-route instrumentation.
func (s *Server) handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, serving.Instrument(s.metrics, pattern, h))
}

// handleAPI registers an /api/v1 route behind request tracing, the
// two-level admission limiter, and (when configured) the fault
// injector, inside the per-route instrumentation so shed 429s are
// metered against their route. Tracing wraps the limiter so shed
// requests still produce a trace and a wide event. The limiter
// attributes each request to the dataset it targets (the {ds} path
// value when the registry holds it; un-scoped aliases, non-dataset
// routes and unregistered names bill the default tenant), so one
// tenant's flood cannot consume another's quota.
func (s *Server) handleAPI(pattern string, h http.Handler) {
	tenantOf := func(r *http.Request) string {
		ds, _ := requestDataset(r)
		if _, ok := s.datasets.Get(ds); !ok {
			return dataset.DefaultID
		}
		return ds
	}
	s.handle(pattern, s.traced(pattern, serving.Shed(s.limiter, tenantOf, s.faults.Middleware(h))))
}

// retuneTenancy recomputes the cache partition and admission quotas
// from the current dataset set and its registry attrs. Called at
// construction and after every dataset PUT/DELETE, so budgets track
// the tenant population: with only the default dataset registered the
// whole cache and the whole admission cap belong to it (legacy
// single-tenant behavior), and each additional tenant gets a weighted
// fair share, overridable per dataset via Attrs.CacheBudget.
func (s *Server) retuneTenancy() {
	ids := s.datasets.IDs()
	overrides := make(map[string]int)
	weights := make(map[string]float64, len(ids))
	for _, id := range ids {
		a := s.datasets.Attrs(id)
		if a.CacheBudget > 0 {
			overrides[id] = a.CacheBudget
		}
		w := a.Weight
		if w <= 0 {
			w = 1
		}
		weights[id] = w
	}
	s.cache.Partition(ids, overrides)
	s.limiter.SetTenants(weights)
}

// route dispatches through the mux, replacing its plain-text 404/405
// responses with the API's JSON error envelope.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	if _, pattern := s.mux.Handler(r); pattern == "" {
		serving.Instrument(s.metrics, "(unmatched)", http.HandlerFunc(s.handleUnmatched)).ServeHTTP(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleUnmatched(w http.ResponseWriter, r *http.Request) {
	// If the path matches a real route under some other method, the
	// original method was the problem: answer 405 listing the allowed
	// methods. HEAD rides along with GET, per net/http.
	var allowed []string
	for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodPatch, http.MethodDelete} {
		if m == r.Method || (m == http.MethodGet && r.Method == http.MethodHead) {
			continue
		}
		probe := r.Clone(r.Context())
		probe.Method = m
		if _, pattern := s.mux.Handler(probe); pattern != "" {
			allowed = append(allowed, m)
		}
	}
	if len(allowed) > 0 {
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "method %s not allowed", r.Method)
		return
	}
	writeError(w, http.StatusNotFound, "not_found", "no such endpoint %s", r.URL.Path)
}

// --- Envelope ------------------------------------------------------------

// ListMeta is the meta block of paginated list endpoints.
type ListMeta struct {
	Total  int `json:"total"`
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
}

// CacheMeta is the meta block of cached analysis endpoints.
type CacheMeta struct {
	// Cache is "hit" when the result was served without recomputing
	// (held answer or shared singleflight) and "miss" when this request
	// computed it.
	Cache string `json:"cache"`
	Key   string `json:"key"`
}

// DatasetCacheMeta is CacheMeta plus dataset identity — the meta block
// of dataset-scoped analysis endpoints. The un-scoped aliases keep the
// plain CacheMeta so their envelopes stay byte-identical to the
// pre-datasets API.
type DatasetCacheMeta struct {
	CacheMeta
	// Dataset is the dataset the analysis computed over.
	Dataset string `json:"dataset"`
	// Revision is the dataset revision served; a re-ingest bumps it, so
	// clients can correlate responses with the corpus they saw.
	Revision uint64 `json:"revision"`
}

// BatchMeta is the meta block of POST /api/v1/batch responses.
type BatchMeta struct {
	Items   int `json:"items"`
	Workers int `json:"workers"`
}

// The fixed bytes of the success envelope around its two members, as
// serving.WriteJSON lays out {"data": ..., "meta": ...}.
const (
	envelopeData = "{\n  \"data\": "
	envelopeMeta = ",\n  \"meta\": "
	envelopeEnd  = "\n}\n"
)

// bodies holds the buffers writeData assembles envelopes in. A buffer
// that grew past maxPooledBody goes back to the GC instead, so a rare
// large body does not stay resident.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// writeData writes the uniform success shape of every v1 response,
// {"data": ..., "meta": ...}. data is a value, encoded here, or an
// analysis's *serving.Answer, whose stored encoding is written as is.
// Both members are encoded as serving.EncodeData encodes them, so the
// body is byte for byte what serving.WriteJSON writes for the two-field
// struct; an envelope that does not encode writes no body, as
// WriteJSON's does. The body goes out in one Write with its
// Content-Length, so net/http sends it unchunked and a request deadline
// cannot cut it short (cmd/serve's withDeadline drops writes once it
// has passed). Write must not retain its argument (io.Writer's
// contract), so the buffer is reused once Write returns.
func writeData(w http.ResponseWriter, status int, data, meta interface{}) {
	if meta == nil {
		meta = struct{}{}
	}
	buf := bodies.Get().(*[]byte)
	body := append((*buf)[:0], envelopeData...)
	var err error
	if ans, ok := data.(*serving.Answer); ok {
		var d []byte
		d, err = ans.Data()
		body = append(body, d...)
	} else {
		body, err = serving.AppendData(body, data)
	}
	body = append(body, envelopeMeta...)
	body, merr := serving.AppendData(body, meta)
	body = append(body, envelopeEnd...)
	w.Header().Set("Content-Type", "application/json")
	ok := err == nil && merr == nil
	if ok {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(status)
	if ok {
		_, _ = w.Write(body)
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		bodies.Put(buf)
	}
}

// ErrorBody is the uniform error shape.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	serving.WriteJSON(w, status, errorEnvelope{Error: ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// --- Generic analysis dispatch -------------------------------------------

// requestDataset resolves which dataset a request targets: the {ds}
// path value on scoped routes, the default dataset on the un-scoped
// aliases. scoped reports which family the route belongs to (scoped
// routes carry dataset identity in their meta block).
func requestDataset(r *http.Request) (ds string, scoped bool) {
	if ds = r.PathValue("ds"); ds != "" {
		return ds, true
	}
	return dataset.DefaultID, false
}

// execAnalysis executes a registered analysis against ds through the
// engine's serving ladder and maps errors to HTTP. It returns (answer,
// outcome, true) when the caller should write the answer; on false the
// error response has already been written (or, for a disconnected
// client, suppressed).
func (s *Server) execAnalysis(w http.ResponseWriter, r *http.Request, ds, name string, values url.Values) (*serving.Answer, engine.Outcome, bool) {
	s.touchDataset(ds)
	ans, out, err := s.exec.AnswerOn(r.Context(), ds, name, values)
	if err == nil {
		return ans, out, true
	}
	if errors.Is(err, context.Canceled) {
		// The client disconnected; there is nobody to answer. A flight
		// with remaining waiters finishes for them and is cached.
		return nil, engine.Outcome{}, false
	}
	switch {
	case errors.Is(err, resilience.ErrOpen):
		w.Header().Set("Retry-After", serving.RetryAfterSeconds(s.exec.RetryAfterOn(ds, name)))
		writeError(w, http.StatusServiceUnavailable, "circuit_open",
			"analysis %q is temporarily disabled after repeated failures; retry later", name)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "timeout", "computation for %q timed out", name)
	default:
		ee := engine.AsError(err)
		writeError(w, ee.Status, ee.Code, "%s", ee.Message)
	}
	return nil, engine.Outcome{}, false
}

// runAnalysis executes a registered analysis for the request's dataset
// and shapes the meta block for the route family: plain CacheMeta on
// the un-scoped aliases (byte-identical to the pre-datasets API),
// DatasetCacheMeta on scoped routes.
func (s *Server) runAnalysis(w http.ResponseWriter, r *http.Request, name string, values url.Values) (*serving.Answer, interface{}, bool) {
	ds, scoped := requestDataset(r)
	ans, out, ok := s.execAnalysis(w, r, ds, name, values)
	if !ok {
		return nil, nil, false
	}
	cm := CacheMeta{Cache: out.Cache, Key: out.Key}
	if scoped {
		return ans, DatasetCacheMeta{CacheMeta: cm, Dataset: out.Dataset, Revision: out.Revision}, true
	}
	return ans, cm, true
}

// handleAnalysis is the shared GET handler behind every analysis route,
// un-scoped and dataset-scoped alike. In fleet mode the request first
// routes to its key's owner (see fleet.go); a false return means this
// replica should serve it on the local ladder after all.
func (s *Server) handleAnalysis(w http.ResponseWriter, r *http.Request, name string, values url.Values) {
	if s.fleet != nil && s.fleetAnalysis(w, r, name, values) {
		return
	}
	ans, meta, ok := s.runAnalysis(w, r, name, values)
	if !ok {
		return
	}
	writeData(w, http.StatusOK, ans, meta)
}

// --- Batch ---------------------------------------------------------------

// BatchRequest is the POST /api/v1/batch body.
type BatchRequest struct {
	Items []engine.BatchItem `json:"items"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad batch body: %v", err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "empty batch: pass items")
		return
	}
	if len(req.Items) > engine.MaxBatchItems {
		writeError(w, http.StatusBadRequest, "bad_request",
			"batch of %d items exceeds the limit of %d", len(req.Items), engine.MaxBatchItems)
		return
	}
	for _, it := range req.Items {
		if it.Dataset != "" {
			s.touchDataset(it.Dataset)
		}
	}
	if s.fleet != nil && r.Header.Get(fleet.ForwardedHeader) == "" {
		// Distributed mode: partition by owner, fan out, reassemble.
		// Forwarded sub-batches skip this arm (loop guard) and run on
		// the local ladder below.
		s.fleetBatch(w, r, req.Items)
		return
	}
	if s.fleet != nil && s.fleet.Draining() {
		s.fleet.CountDrainRefused()
		writeError(w, http.StatusServiceUnavailable, "node_draining",
			"node %s is draining; compute locally or retry another replica", s.fleet.Self())
		return
	}
	results := s.exec.RunBatch(r.Context(), req.Items)
	if r.Context().Err() != nil {
		return // client gone; nothing to write
	}
	writeData(w, http.StatusOK, results, BatchMeta{Items: len(results), Workers: s.exec.BatchWorkers()})
}

// --- Query parameter parsing ---------------------------------------------

// parseIntParam parses an integer query parameter, returning def when
// absent and an error when malformed or below min.
func parseIntParam(values url.Values, name string, def, min int) (int, error) {
	v := values.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < min {
		return 0, fmt.Errorf("bad %s %q: want integer >= %d", name, v, min)
	}
	return n, nil
}

// parsePage parses limit/offset with strict validation.
func parsePage(values url.Values, defLimit int) (limit, offset int, err error) {
	if limit, err = parseIntParam(values, "limit", defLimit, 1); err != nil {
		return 0, 0, err
	}
	if offset, err = parseIntParam(values, "offset", 0, 0); err != nil {
		return 0, 0, err
	}
	return limit, offset, nil
}

// pageBounds clips [offset, offset+limit) to n items, for any
// non-negative offset and limit.
func pageBounds(n, limit, offset int) (lo, hi int) {
	lo = min(offset, n)
	return lo, lo + min(limit, n-lo)
}

// --- Health --------------------------------------------------------------

// HealthResponse is the /healthz data payload. Courses and Materials
// describe the default dataset (liveness predates multi-dataset);
// Datasets counts every registered dataset.
type HealthResponse struct {
	Status    string `json:"status"`
	Courses   int    `json:"courses"`
	Materials int    `json:"materials"`
	Datasets  int    `json:"datasets"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	def := s.datasets.Default()
	writeData(w, http.StatusOK, HealthResponse{
		Status:    "ok",
		Courses:   len(def.Repo().Courses()),
		Materials: def.Repo().NumMaterials(),
		Datasets:  s.datasets.Len(),
	}, nil)
}

// --- Readiness -----------------------------------------------------------

// DatasetReady is one dataset's warmup state in the /readyz payload.
type DatasetReady struct {
	// Status is "starting" (registered, warmup not begun), "warming"
	// (warmup in progress), "ready", or "unready" (warmup failed).
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// setDatasetState records one dataset's warmup state.
func (s *Server) setDatasetState(id string, st DatasetReady) {
	s.readyMu.Lock()
	s.dsState[id] = st
	s.readyMu.Unlock()
}

// dropDatasetState forgets a deleted dataset's warmup state.
func (s *Server) dropDatasetState(id string) {
	s.readyMu.Lock()
	delete(s.dsState, id)
	s.readyMu.Unlock()
}

// warmDataset pre-computes one dataset's warmable analyses under the
// exact (dataset, revision)-scoped cache keys live requests use,
// recording the outcome in the per-dataset readiness state.
func (s *Server) warmDataset(ctx context.Context, id string) error {
	s.setDatasetState(id, DatasetReady{Status: "warming"})
	err := s.exec.WarmDataset(ctx, id)
	if err != nil {
		s.setDatasetState(id, DatasetReady{Status: "unready", Reason: err.Error()})
		return err
	}
	s.setDatasetState(id, DatasetReady{Status: "ready"})
	return nil
}

// warmup warms every dataset registered at startup, default first: the
// default dataset's outcome gates /readyz (proving the seed corpus is
// loaded and the all-group analyses are warmable); data-dir datasets
// warm after it and report per-dataset state only.
func (s *Server) warmup(ctx context.Context) {
	err := s.warmDataset(ctx, dataset.DefaultID)
	s.readyMu.Lock()
	s.ready = err == nil
	s.readyErr = err
	s.readyMu.Unlock()
	for _, id := range s.datasets.IDs() {
		if id != dataset.DefaultID {
			_ = s.warmDataset(ctx, id)
		}
	}
}

// ReadyResponse is the /readyz data payload. Unlike /healthz (pure
// liveness), readiness reflects whether the server has warmed its
// all-group analyses over the default dataset, and the payload always
// reports per-dataset warmup states and circuit states so operators
// can see degradation at a glance.
type ReadyResponse struct {
	Status   string                             `json:"status"` // "ready", "starting", or "unready"
	Reason   string                             `json:"reason,omitempty"`
	Analyses []string                           `json:"analyses"`
	Datasets map[string]DatasetReady            `json:"datasets"`
	Breakers map[string]resilience.BreakerStats `json:"breakers"`
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.readyMu.Lock()
	ready, readyErr := s.ready, s.readyErr
	states := make(map[string]DatasetReady, len(s.dsState))
	for id, st := range s.dsState {
		states[id] = st
	}
	s.readyMu.Unlock()
	resp := ReadyResponse{
		Status:   "ready",
		Analyses: s.exec.Registry().SortedNames(),
		Datasets: states,
		Breakers: map[string]resilience.BreakerStats{},
	}
	if s.breakers != nil {
		resp.Breakers = s.breakers.Stats()
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
		resp.Status = "starting"
		if readyErr != nil {
			resp.Status = "unready"
			resp.Reason = readyErr.Error()
		}
	}
	if s.fleet != nil && s.fleet.Draining() {
		// Draining replicas keep serving in-flight and direct traffic
		// but must drop out of load-balancer rotation.
		status = http.StatusServiceUnavailable
		resp.Status = "draining"
	}
	writeData(w, status, resp, nil)
}

// --- Courses -------------------------------------------------------------

// CourseSummary is the list-view shape of a course.
type CourseSummary struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Institution string `json:"institution,omitempty"`
	Instructor  string `json:"instructor,omitempty"`
	Group       string `json:"group"`
	Secondary   string `json:"secondary_group,omitempty"`
	Tags        int    `json:"tags"`
	Materials   int    `json:"materials"`
}

// summarize counts a course's distinct tags as its tag row's length.
func summarize(repo *materials.Repository, c *materials.Course) CourseSummary {
	return CourseSummary{
		ID: c.ID, Name: c.Name, Institution: c.Institution, Instructor: c.Instructor,
		Group: string(c.Group), Secondary: string(c.SecondaryGroup),
		Tags: len(repo.TagRow(c.ID)), Materials: len(c.Materials),
	}
}

// snapshot resolves the request's dataset to its current snapshot,
// writing the 400/404 error envelope (and returning nil) when the ID is
// malformed or unknown. Handlers hold the snapshot for the whole
// request, so a concurrent ingest cannot shift the corpus under them.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) *dataset.Snapshot {
	ds, _ := requestDataset(r)
	if err := dataset.ValidateID(ds); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%s", err.Error())
		return nil
	}
	snap, ok := s.datasets.Get(ds)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "unknown dataset %q", ds)
		return nil
	}
	s.touchDataset(ds)
	return snap
}

func (s *Server) handleCourses(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot(w, r)
	if snap == nil {
		return
	}
	limit, offset, err := parsePage(r.URL.Query(), 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	repo := snap.Repo()
	cs := repo.Courses()
	lo, hi := pageBounds(len(cs), limit, offset)
	out := make([]CourseSummary, 0, hi-lo)
	for _, c := range cs[lo:hi] {
		out = append(out, summarize(repo, c))
	}
	writeData(w, http.StatusOK, out, ListMeta{Total: len(cs), Limit: limit, Offset: offset})
}

// CourseDetail is the single-course data payload.
type CourseDetail struct {
	Course CourseSummary `json:"course"`
	Tags   []string      `json:"tags"`
}

// course resolves the request's course and the repository holding it,
// writing the error envelope (and returning a nil course) when either
// is unknown.
func (s *Server) course(w http.ResponseWriter, r *http.Request) (*materials.Repository, *materials.Course) {
	snap := s.snapshot(w, r)
	if snap == nil {
		return nil, nil
	}
	id := r.PathValue("id")
	repo := snap.Repo()
	c := repo.Course(id)
	if c == nil {
		writeError(w, http.StatusNotFound, "not_found", "unknown course %q", id)
	}
	return repo, c
}

// handleCourse lists a course's distinct tags in sorted order: the
// vocabulary entries its tag row ranks, which ascend as the IDs sort.
func (s *Server) handleCourse(w http.ResponseWriter, r *http.Request) {
	repo, c := s.course(w, r)
	if c == nil {
		return
	}
	row, vocab := repo.TagRow(c.ID), repo.Vocabulary()
	tags := make([]string, len(row))
	for i, rank := range row {
		tags[i] = vocab.Tag(rank)
	}
	writeData(w, http.StatusOK, CourseDetail{Course: summarize(repo, c), Tags: tags}, nil)
}

// handleCourseView serves /api/v1/courses/{id}/{view}. "materials" is
// the one inline view; every other view dispatches into the analysis
// registry with the course ID injected as the "course" parameter, so
// per-course analyses (anchors, audit, pdcmaterials) need no wiring
// here.
func (s *Server) handleCourseView(w http.ResponseWriter, r *http.Request) {
	_, c := s.course(w, r)
	if c == nil {
		return
	}
	view := r.PathValue("view")
	if view == "materials" {
		writeData(w, http.StatusOK, c.Materials, ListMeta{Total: len(c.Materials), Limit: len(c.Materials), Offset: 0})
		return
	}
	if _, ok := s.exec.Registry().Get(view); !ok {
		writeError(w, http.StatusNotFound, "not_found", "unknown course view %q", view)
		return
	}
	values := r.URL.Query()
	values.Set("course", c.ID)
	ans, m, ok := s.runAnalysis(w, r, view, values)
	if !ok {
		return
	}
	writeData(w, http.StatusOK, ans, m)
}

// --- Search --------------------------------------------------------------

// SearchHit is one material search result.
type SearchHit struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Type    string   `json:"type"`
	Author  string   `json:"author,omitempty"`
	Score   float64  `json:"score"`
	Matched []string `json:"matched_tags,omitempty"`
}

// searcherFor returns the search index for snap's dataset revision,
// building and caching it on first use; a re-ingest's revision bump
// invalidates the cached index.
func (s *Server) searcherFor(snap *dataset.Snapshot) *search.Engine {
	s.searcherMu.Lock()
	defer s.searcherMu.Unlock()
	if e, ok := s.searchers[snap.ID()]; ok && e.rev == snap.Revision() {
		return e.eng
	}
	eng := search.NewEngine(snap.Repo())
	s.searchers[snap.ID()] = searcherEntry{rev: snap.Revision(), eng: eng}
	return eng
}

// dropSearcher forgets a deleted dataset's search index.
func (s *Server) dropSearcher(id string) {
	s.searcherMu.Lock()
	delete(s.searchers, id)
	s.searcherMu.Unlock()
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot(w, r)
	if snap == nil {
		return
	}
	values := r.URL.Query()
	limit, offset, err := parsePage(values, 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	q := search.Query{
		Text:        values.Get("text"),
		Author:      values.Get("author"),
		Language:    values.Get("language"),
		CourseLevel: values.Get("level"),
	}
	if tags := values.Get("tags"); tags != "" {
		q.Tags = strings.Split(tags, ",")
	}
	if p := values.Get("prefix"); p != "" {
		q.TagPrefixes = []string{p}
	}
	if len(q.Tags) == 0 && len(q.TagPrefixes) == 0 && q.Text == "" &&
		q.Author == "" && q.Language == "" && q.CourseLevel == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "empty query: pass tags, prefix, text, or a facet")
		return
	}
	q.Offset, q.Limit = offset, limit
	page, total := s.searcherFor(snap).Page(q)
	out := make([]SearchHit, 0, len(page))
	for _, res := range page {
		out = append(out, SearchHit{
			ID: res.Material.ID, Title: res.Material.Title, Type: string(res.Material.Type),
			Author: res.Material.Author, Score: res.Score, Matched: res.MatchedTags,
		})
	}
	writeData(w, http.StatusOK, out, ListMeta{Total: total, Limit: limit, Offset: offset})
}

// --- Figures -------------------------------------------------------------

// FigureResponse is the /api/v1/figures/{id} data payload.
type FigureResponse struct {
	ID   string   `json:"id"`
	Text string   `json:"text"`
	SVGs []string `json:"svgs"`
}

// handleFigure dispatches the figures analysis for the path's ID and
// adds the one figure-specific affordance: ?svg=<name> serves a single
// SVG body from the cached artifact.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	values := url.Values{"id": []string{r.PathValue("id")}}
	ans, m, ok := s.runAnalysis(w, r, "figures", values)
	if !ok {
		return
	}
	art := ans.Value.(*core.Artifact)
	if svg := r.URL.Query().Get("svg"); svg != "" {
		body, ok := art.SVGs[svg]
		if !ok {
			writeError(w, http.StatusNotFound, "not_found", "figure %s has no SVG %q", art.ID, svg)
			return
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		_, _ = w.Write([]byte(body))
		return
	}
	svgNames := make([]string, 0, len(art.SVGs))
	for name := range art.SVGs {
		svgNames = append(svgNames, name)
	}
	sort.Strings(svgNames)
	writeData(w, http.StatusOK, FigureResponse{ID: art.ID, Text: art.Text, SVGs: svgNames}, m)
}
