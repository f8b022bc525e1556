package main

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"csmaterials/internal/engine"
	"csmaterials/internal/nnmf"
	"csmaterials/internal/obs"
	"csmaterials/internal/resilience"
	"csmaterials/internal/server"
)

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := parseConfig(nil)
	if err != nil {
		t.Fatalf("parseConfig(nil): %v", err)
	}
	if cfg.addr != ":8080" {
		t.Errorf("addr = %q, want :8080", cfg.addr)
	}
	if cfg.cacheSize != server.DefaultCacheSize {
		t.Errorf("cacheSize = %d, want %d", cfg.cacheSize, server.DefaultCacheSize)
	}
	if cfg.requestTimeout != 30*time.Second {
		t.Errorf("requestTimeout = %s, want 30s", cfg.requestTimeout)
	}
	if cfg.shutdownTimeout != 10*time.Second {
		t.Errorf("shutdownTimeout = %s, want 10s", cfg.shutdownTimeout)
	}
	if cfg.maxInFlight != server.DefaultMaxInFlight {
		t.Errorf("maxInFlight = %d, want %d", cfg.maxInFlight, server.DefaultMaxInFlight)
	}
	if cfg.breakerThreshold != resilience.DefaultBreakerThreshold {
		t.Errorf("breakerThreshold = %d, want %d", cfg.breakerThreshold, resilience.DefaultBreakerThreshold)
	}
	if cfg.breakerCooldown != resilience.DefaultBreakerCooldown {
		t.Errorf("breakerCooldown = %s, want %s", cfg.breakerCooldown, resilience.DefaultBreakerCooldown)
	}
	if cfg.batchWorkers != engine.DefaultBatchWorkers {
		t.Errorf("batchWorkers = %d, want %d", cfg.batchWorkers, engine.DefaultBatchWorkers)
	}
	if cfg.traceBuffer != server.DefaultTraceBuffer {
		t.Errorf("traceBuffer = %d, want %d", cfg.traceBuffer, server.DefaultTraceBuffer)
	}
	if cfg.debugAddr != "" {
		t.Errorf("debugAddr = %q, want disabled by default", cfg.debugAddr)
	}
	if cfg.dataDir != "" {
		t.Errorf("dataDir = %q, want disabled by default", cfg.dataDir)
	}
	if cfg.traceSample != 1 { // lint:exact — flag default is the literal 1, not a computed value
		t.Errorf("traceSample = %v, want 1 (sample everything) by default", cfg.traceSample)
	}
	if cfg.nodeID != "" || cfg.peers != "" {
		t.Errorf("nodeID/peers = %q/%q, want single-process mode by default", cfg.nodeID, cfg.peers)
	}
}

func TestParseConfigOverrides(t *testing.T) {
	cfg, err := parseConfig([]string{
		"-addr", "127.0.0.1:9999",
		"-cache-size", "7",
		"-request-timeout", "2s",
		"-shutdown-timeout", "1s",
		"-max-inflight", "3",
		"-breaker-threshold", "-1",
		"-breaker-cooldown", "5s",
		"-batch-workers", "9",
		"-trace-buffer", "13",
		"-debug-addr", "127.0.0.1:6060",
		"-data-dir", "/tmp/datasets",
		"-trace-sample", "0.25",
		"-node-id", "a",
		"-peers", "a=127.0.0.1:8080,b=127.0.0.1:8081",
	})
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	want := config{
		addr:             "127.0.0.1:9999",
		cacheSize:        7,
		requestTimeout:   2 * time.Second,
		shutdownTimeout:  time.Second,
		maxInFlight:      3,
		breakerThreshold: -1,
		breakerCooldown:  5 * time.Second,
		batchWorkers:     9,
		traceBuffer:      13,
		debugAddr:        "127.0.0.1:6060",
		dataDir:          "/tmp/datasets",
		traceSample:      0.25,
		nodeID:           "a",
		peers:            "a=127.0.0.1:8080,b=127.0.0.1:8081",
	}
	if cfg != want {
		t.Errorf("parseConfig = %+v, want %+v", cfg, want)
	}
}

func TestParseConfigError(t *testing.T) {
	if _, err := parseConfig([]string{"-request-timeout", "not-a-duration"}); err == nil {
		t.Fatal("expected error for malformed duration")
	}
	if _, err := parseConfig([]string{"-no-such-flag"}); err == nil {
		t.Fatal("expected error for unknown flag")
	}
	if _, err := parseConfig([]string{"-node-id", "a"}); err == nil {
		t.Fatal("expected error for -node-id without -peers")
	}
	// A held answer is always served as a hit, so there is no
	// degradation switch left to set.
	if _, err := parseConfig([]string{"-stale-serve=false"}); err == nil {
		t.Fatal("expected error for the removed -stale-serve flag")
	}
}

// TestServerOptionsFleet pins the multi-replica wiring: -peers builds a
// fleet whose membership, identity, and ring version come from the peer
// table, and a malformed table (or a -node-id missing from it) fails
// startup rather than silently serving single-process.
func TestServerOptionsFleet(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	events := obs.NewLogger(io.Discard)
	cfg := config{
		nodeID:      "b",
		peers:       "a=127.0.0.1:8080,b=127.0.0.1:8081,c=127.0.0.1:8082",
		traceSample: 1,
	}
	opts, err := cfg.serverOptions(logger, events)
	if err != nil {
		t.Fatalf("serverOptions: %v", err)
	}
	if opts.Fleet == nil {
		t.Fatal("Fleet = nil, want a fleet when -peers is set")
	}
	if opts.Fleet.Self() != "b" {
		t.Errorf("Self = %q, want b", opts.Fleet.Self())
	}
	if got := len(opts.Fleet.Peers()); got != 3 {
		t.Errorf("len(Peers) = %d, want 3", got)
	}

	cfg.peers = "a=127.0.0.1:8080" // node-id b not in the table
	if _, err := cfg.serverOptions(logger, events); err == nil {
		t.Fatal("expected error when -node-id is not in -peers")
	}

	cfg.peers = "not-a-peer-table"
	if _, err := cfg.serverOptions(logger, events); err == nil {
		t.Fatal("expected error for malformed -peers")
	}

	cfg.peers = ""
	cfg.nodeID = ""
	opts, err = cfg.serverOptions(logger, events)
	if err != nil {
		t.Fatalf("serverOptions: %v", err)
	}
	if opts.Fleet != nil {
		t.Error("Fleet must stay nil without -peers")
	}
}

// TestListeningEventNamesKernel: the startup event names the NNMF tile
// kernel this process runs, and the fleet fields appear only with a
// fleet.
func TestListeningEventNamesKernel(t *testing.T) {
	cfg := config{addr: ":0", traceSample: 1}
	ev := listeningEvent(cfg, nil)
	if got := ev["nnmf_kernel"]; got != nnmf.Kernel() || (got != "avx" && got != "go") {
		t.Fatalf("nnmf_kernel = %v, want %q (avx or go)", got, nnmf.Kernel())
	}
	if _, ok := ev["node_id"]; ok {
		t.Fatal("node_id reported without a fleet")
	}
	cfg.nodeID, cfg.peers = "a", "a=127.0.0.1:8080,b=127.0.0.1:8081"
	opts, err := cfg.serverOptions(log.New(io.Discard, "", 0), obs.NewLogger(io.Discard))
	if err != nil {
		t.Fatalf("serverOptions: %v", err)
	}
	ev = listeningEvent(cfg, opts.Fleet)
	if ev["node_id"] != "a" || ev["peers"] != 2 {
		t.Fatalf("fleet fields node_id=%v peers=%v, want a and 2", ev["node_id"], ev["peers"])
	}
}

// TestServerOptionsTraceSample pins that -trace-sample reaches the
// tracer: at rate 0 every request is sampled out.
func TestServerOptionsTraceSample(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	events := obs.NewLogger(io.Discard)
	cfg := config{traceBuffer: 4, traceSample: 0}
	opts, err := cfg.serverOptions(logger, events)
	if err != nil {
		t.Fatalf("serverOptions: %v", err)
	}
	if got := opts.Tracer.Stats().SampleRate; got != 0 {
		t.Errorf("SampleRate = %v, want 0", got)
	}
}

func TestServerOptionsMapping(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	events := obs.NewLogger(io.Discard)
	cfg := config{
		cacheSize:        11,
		maxInFlight:      22,
		breakerThreshold: 33,
		breakerCooldown:  44 * time.Second,
		batchWorkers:     6,
		traceBuffer:      5,
		dataDir:          "/tmp/datasets",
	}
	opts, err := cfg.serverOptions(logger, events)
	if err != nil {
		t.Fatalf("serverOptions: %v", err)
	}
	if opts.CacheSize != 11 || opts.MaxInFlight != 22 || opts.BreakerThreshold != 33 || opts.BreakerCooldown != 44*time.Second || opts.BatchWorkers != 6 {
		t.Errorf("options mismatch: %+v", opts)
	}
	if opts.DataDir != "/tmp/datasets" {
		t.Errorf("DataDir = %q, want /tmp/datasets", opts.DataDir)
	}
	if opts.Logger != logger {
		t.Error("logger not propagated")
	}
	if opts.Events != events {
		t.Error("events logger not propagated")
	}
	if opts.Tracer == nil || opts.Tracer.Stats().Capacity != 5 {
		t.Errorf("tracer capacity not mapped from -trace-buffer: %+v", opts.Tracer)
	}
}

// TestDebugHandler pins the -debug-addr surface: pprof endpoints are
// served, and everything else falls through to the main handler.
func TestDebugHandler(t *testing.T) {
	main := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	h := debugHandler(main)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index: status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("fallback: status %d, want main handler's 418", rec.Code)
	}
}

func TestNewHTTPServerWiring(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	cfg := config{addr: ":0", requestTimeout: 50 * time.Millisecond}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	srv := newHTTPServer(cfg, handler, logger)
	if srv.Addr != ":0" {
		t.Errorf("Addr = %q, want :0", srv.Addr)
	}
	if srv.WriteTimeout != cfg.requestTimeout+5*time.Second {
		t.Errorf("WriteTimeout = %s, want request timeout + 5s", srv.WriteTimeout)
	}
	if srv.ErrorLog != logger {
		t.Error("ErrorLog not propagated")
	}

	// The handler above outlives the deadline, so the TimeoutHandler
	// wrapper must answer with 503 and the JSON timeout body.
	rec := httptest.NewRecorder()
	srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/courses", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 from TimeoutHandler", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"code":"timeout"`) {
		t.Errorf("timeout body = %q, want JSON error envelope", body)
	}
}
