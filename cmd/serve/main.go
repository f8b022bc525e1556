// Command serve runs the CS Materials reproduction as a versioned JSON
// HTTP API — the "public resource" form of the system (§3.1) — with
// production hardening: a bounded LRU cache with singleflight over the
// analyses, per-route metrics, panic recovery, structured access logs,
// per-request timeouts, graceful shutdown on SIGINT/SIGTERM, and a
// resilience ladder (load shedding, per-analysis circuit breakers).
//
// Usage:
//
//	serve [-addr :8080] [-cache-size 512] [-request-timeout 30s] [-shutdown-timeout 10s]
//	      [-max-inflight 256] [-breaker-threshold 5] [-breaker-cooldown 30s]
//	      [-batch-workers 4] [-trace-buffer 256] [-trace-sample 1] [-debug-addr ""] [-data-dir ""]
//	      [-api-keys-file ""] [-idle-ttl 0] [-node-id ""] [-peers ""]
//
// Beyond -max-inflight concurrent /api/v1 requests the server sheds
// load with 429 + Retry-After. Each analysis family has a circuit
// breaker that opens after -breaker-threshold consecutive compute
// failures and probes again after -breaker-cooldown. An answer the
// cache holds is served as a hit whatever its breaker's state; while a
// breaker is open, an answer that is not held fails fast with 503
// circuit_open + Retry-After.
//
// Endpoints (every /api/v1 response is a {"data","meta"} envelope,
// errors are {"error":{"code","message"}}):
//
//	GET  /healthz
//	GET  /readyz
//	GET  /api/v1/courses?limit=N&offset=M
//	GET  /api/v1/courses/{id}
//	GET  /api/v1/courses/{id}/materials
//	GET  /api/v1/courses/{id}/anchors
//	GET  /api/v1/courses/{id}/audit
//	GET  /api/v1/courses/{id}/pdcmaterials?limit=N
//	GET  /api/v1/search?tags=...&prefix=...&author=...&limit=N&offset=M
//	GET  /api/v1/agreement?group=CS1|DS|DSAlgo|PDC|all&threshold=K
//	GET  /api/v1/types?group=...&k=K
//	GET  /api/v1/cluster?group=...&k=K
//	GET  /api/v1/figures/{id}[?svg=name.svg]
//	POST /api/v1/batch          {"items":[{"analysis":"types","dataset":"d","params":{"group":"cs1"}}, ...]}
//	GET  /api/v1/datasets?limit=N&offset=M
//	GET  /api/v1/datasets/{id}              dataset metadata (revision, courses, materials)
//	PUT  /api/v1/datasets/{id}              ingest/replace a dataset ({"courses":[...]})
//	PATCH /api/v1/datasets/{id}             apply a delta ({"events":[...]}); incremental refresh
//	DELETE /api/v1/datasets/{id}            remove a dataset ("default" is protected, 409)
//	POST /api/v1/keys/reload                re-read -api-keys-file (admin key; SIGHUP equivalent)
//	GET  /api/v1/datasets/{id}/...          every query/analysis route, dataset-scoped
//	GET  /metrics               Prometheus text exposition (every metric)
//	GET  /debug/trace           retained trace IDs
//	GET  /debug/trace/{id}      one request's span record
//
// Every API response carries an X-Trace header naming its request
// trace; the last -trace-buffer traces are retained for
// /debug/trace/{id}. Operational output (startup, shutdown) is
// structured JSON on stderr, one event per line, matching the
// per-request wide events. With -debug-addr set, a second listener
// serves Go pprof under /debug/pprof/ (plus everything the main
// listener serves), so profiling stays off the public port.
//
// The analysis endpoints are registry-driven (internal/engine): each
// registered analysis is served at /api/v1/<name> and is addressable
// by name in a batch. Batch items run on a -batch-workers pool with
// per-item cache/breaker semantics and per-item error envelopes, in
// input order.
//
// The API is multi-dataset: the synthetic seed corpus is dataset
// "default", -data-dir loads additional *.json dataset documents at
// startup (each named after its file stem), and PUT /api/v1/datasets/{id}
// ingests or replaces a dataset live. The un-scoped routes above are
// permanent aliases for the default dataset; each also exists under
// /api/v1/datasets/{id}/... scoped to any dataset. Caches, breakers,
// and metrics partition per (dataset, analysis).
//
// Multi-replica mode: start every replica with the same -peers list
// ("id=host:port,...") and its own -node-id from that list. Replicas
// route each analysis request to the key's owner on a consistent-hash
// ring (ownership = cache locality; the owner's singleflight becomes
// cluster-wide dedup) and fan batch items out by owner, degrading to
// local compute whenever a peer is unreachable or draining. GET
// /api/v1/fleet reports membership and routing counters;
// docs/cluster.md is the operator guide. At fleet scale -trace-sample
// thins request tracing to a deterministic fraction; sampled-out
// requests still log a wide event.
//
// Only /api/v1/... paths exist; any other /api/... path is a 404.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"csmaterials/internal/engine"
	"csmaterials/internal/fleet"
	"csmaterials/internal/nnmf"
	"csmaterials/internal/obs"
	"csmaterials/internal/resilience"
	"csmaterials/internal/server"
)

// config is the parsed command line, split from main so tests can cover
// flag parsing and server wiring without binding a socket.
type config struct {
	addr             string
	cacheSize        int
	requestTimeout   time.Duration
	shutdownTimeout  time.Duration
	maxInFlight      int
	breakerThreshold int
	breakerCooldown  time.Duration
	batchWorkers     int
	traceBuffer      int
	debugAddr        string
	dataDir          string
	apiKeysFile      string
	idleTTL          time.Duration
	nodeID           string
	peers            string
	traceSample      float64
}

// fleetFlagNames are the flags that exist only for multi-replica
// deployments. docs/cluster.md must document every one of them — the
// docs drift test walks this list, so adding a fleet flag without a
// cluster-doc entry fails the build.
var fleetFlagNames = []string{"node-id", "peers", "trace-sample"}

// newFlagSet builds the serve flag set over cfg. Split from
// parseConfig so the docs drift test can introspect the registered
// flags without parsing a command line.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.cacheSize, "cache-size", server.DefaultCacheSize, "analysis cache capacity: the answers held across all datasets (negative disables retention)")
	fs.DurationVar(&cfg.requestTimeout, "request-timeout", 30*time.Second, "per-request handler deadline")
	fs.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	fs.IntVar(&cfg.maxInFlight, "max-inflight", server.DefaultMaxInFlight, "max concurrent /api/v1 requests before shedding with 429 (negative disables)")
	fs.IntVar(&cfg.breakerThreshold, "breaker-threshold", resilience.DefaultBreakerThreshold, "consecutive compute failures before an analysis circuit opens (negative disables breakers)")
	fs.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", resilience.DefaultBreakerCooldown, "how long an open circuit waits before a half-open probe")
	fs.IntVar(&cfg.batchWorkers, "batch-workers", engine.DefaultBatchWorkers, "worker pool size for POST /api/v1/batch")
	fs.IntVar(&cfg.traceBuffer, "trace-buffer", server.DefaultTraceBuffer, "finished request traces retained for GET /debug/trace/{id}")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "optional second listen address serving /debug/pprof/ (empty disables)")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "optional directory of *.json dataset documents registered at startup")
	fs.StringVar(&cfg.apiKeysFile, "api-keys-file", "", "optional JSON keyring locking dataset PUT/DELETE behind API keys (CSM_ADMIN_KEY adds an admin key; empty + unset env = open mode)")
	fs.DurationVar(&cfg.idleTTL, "idle-ttl", 0, "reclaim idle datasets' search indexes and warm caches after this long without queries (0 disables)")
	fs.StringVar(&cfg.nodeID, "node-id", "", "this replica's node ID in the -peers list (required with -peers)")
	fs.StringVar(&cfg.peers, "peers", "", "fleet membership as comma-separated id=host:port entries, including this node; empty = single-process mode")
	fs.Float64Var(&cfg.traceSample, "trace-sample", 1, "fraction of requests to trace, 0..1 (sampled-out requests still log wide events)")
	return fs
}

// parseConfig parses args (excluding the program name).
func parseConfig(args []string) (config, error) {
	cfg := config{}
	fs := newFlagSet(&cfg)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if cfg.peers == "" && cfg.nodeID != "" {
		return config{}, errors.New("-node-id is set but -peers is empty")
	}
	return cfg, nil
}

// serverOptions maps the command line onto the server package's
// options. events carries the per-request wide events; logger keeps
// receiving panic stacks and http.Server errors. API keys come from
// -api-keys-file folded with the CSM_ADMIN_KEY environment variable;
// when neither is set the mutating dataset surface stays open.
func (c config) serverOptions(logger *log.Logger, events *obs.Logger) (server.Options, error) {
	var keys *server.KeysFile
	if c.apiKeysFile != "" {
		kf, err := server.LoadKeysFile(c.apiKeysFile)
		if err != nil {
			return server.Options{}, err
		}
		keys = kf
	}
	keys = server.KeysFromEnv(keys)
	var reload func() (*server.KeysFile, error)
	if c.apiKeysFile != "" {
		// Rotation without restart: SIGHUP and POST /api/v1/keys/reload
		// re-read the same file (CSM_ADMIN_KEY is folded back in by the
		// server on every reload).
		path := c.apiKeysFile
		reload = func() (*server.KeysFile, error) { return server.LoadKeysFile(path) }
	}
	tracer := obs.NewTracer(c.traceBuffer, nil)
	tracer.SetSampleRate(c.traceSample)
	var fl *fleet.Fleet
	if c.peers != "" {
		fcfg, err := fleet.ParsePeers(c.nodeID, c.peers)
		if err != nil {
			return server.Options{}, err
		}
		// Per-peer forwarding breakers reuse the analysis breaker
		// tuning: a peer that keeps failing transport stops being
		// forwarded to for the same cooldown an analysis would get.
		fl, err = fleet.New(fcfg, fleet.Options{
			BreakerThreshold: c.breakerThreshold,
			BreakerCooldown:  c.breakerCooldown,
		})
		if err != nil {
			return server.Options{}, err
		}
	}
	return server.Options{
		CacheSize:        c.cacheSize,
		Logger:           logger,
		MaxInFlight:      c.maxInFlight,
		BreakerThreshold: c.breakerThreshold,
		BreakerCooldown:  c.breakerCooldown,
		BatchWorkers:     c.batchWorkers,
		Tracer:           tracer,
		Events:           events,
		DataDir:          c.dataDir,
		APIKeys:          keys,
		ReloadKeys:       reload,
		IdleTTL:          c.idleTTL,
		Fleet:            fl,
	}, nil
}

// debugHandler serves Go pprof under /debug/pprof/ and falls back to
// the main handler for everything else, so the debug listener also
// answers /metrics and /debug/trace.
func debugHandler(main http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", main)
	return mux
}

// newHTTPServer wraps the handler with the per-request deadline and the
// hardening timeouts around it.
func newHTTPServer(cfg config, handler http.Handler, logger *log.Logger) *http.Server {
	return &http.Server{
		Addr:              cfg.addr,
		Handler:           withDeadline(handler, cfg.requestTimeout),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		// The handler deadline fires first; leave headroom to flush.
		WriteTimeout: cfg.requestTimeout + 5*time.Second,
		IdleTimeout:  2 * time.Minute,
		ErrorLog:     logger,
	}
}

// listeningEvent returns the startup event's fields: the serving
// limits, the NNMF tile kernel this CPU runs ("avx" or "go"; the same
// factors, the Go kernel slower), and in fleet mode the replica's
// place in the ring.
func listeningEvent(cfg config, fl *fleet.Fleet) map[string]interface{} {
	listening := map[string]interface{}{
		"addr":            cfg.addr,
		"cache_entries":   cfg.cacheSize,
		"request_timeout": cfg.requestTimeout.String(),
		"max_in_flight":   cfg.maxInFlight,
		"trace_buffer":    cfg.traceBuffer,
		"nnmf_kernel":     nnmf.Kernel(),
	}
	if fl != nil {
		listening["node_id"] = fl.Self()
		listening["ring_version"] = fl.RingVersion()
		listening["peers"] = len(fl.Peers())
	}
	return listening
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}

	// All operational output is structured: one JSON event per line on
	// stderr, the same stream and shape as the per-request wide events.
	// The plain logger remains for panic stacks and http.Server errors,
	// which are multi-line by nature.
	events := obs.NewLogger(os.Stderr)
	logger := log.New(os.Stderr, "serve ", log.LstdFlags|log.LUTC)
	fail := func(event string, err error) {
		events.Event(event, map[string]interface{}{"error": err.Error()})
		os.Exit(1)
	}

	opts, err := cfg.serverOptions(logger, events)
	if err != nil {
		fail("startup-failed", err)
	}
	s, err := server.NewWithOptions(opts)
	if err != nil {
		fail("startup-failed", err)
	}
	srv := newHTTPServer(cfg, s, logger)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Idle-dataset reclamation runs for the process lifetime; servers
	// embedded in tests never start it.
	s.StartIdleReaper(ctx)
	// Ingest-triggered warmups spawned after this point are cancelled by
	// the signal context and awaited before shutdown-complete.
	s.BindLifecycle(ctx)
	// Propagate the signal context into every request so in-flight
	// handlers observe cancellation during shutdown.
	srv.BaseContext = func(net.Listener) context.Context { return ctx }

	// SIGHUP rotates the API keyring in place when -api-keys-file is
	// set: revoked keys stop authenticating on the next request without
	// dropping a single connection.
	if cfg.apiKeysFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for {
				select {
				case <-ctx.Done():
					signal.Stop(hup)
					return
				case <-hup:
					if err := s.ReloadAPIKeys(); err != nil {
						events.Event("keys-reload-failed", map[string]interface{}{"error": err.Error()})
					} else {
						events.Event("keys-reloaded", map[string]interface{}{"file": cfg.apiKeysFile})
					}
				}
			}
		}()
	}

	if cfg.debugAddr != "" {
		dbg := &http.Server{Addr: cfg.debugAddr, Handler: debugHandler(s), ErrorLog: logger}
		go func() {
			events.Event("debug-listening", map[string]interface{}{"addr": cfg.debugAddr})
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				events.Event("debug-failed", map[string]interface{}{"error": err.Error()})
			}
		}()
		go func() {
			<-ctx.Done()
			_ = dbg.Close()
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		// In fleet mode, stop accepting newly forwarded computes (503
		// node_draining, peers fall back locally) before the listener
		// starts its graceful drain.
		s.StartDraining()
		events.Event("shutdown-draining", map[string]interface{}{"grace": cfg.shutdownTimeout.String()})
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			events.Event("shutdown-forced", map[string]interface{}{"error": err.Error()})
			_ = srv.Close()
		}
	}()

	events.Event("listening", listeningEvent(cfg, s.Fleet()))
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fail("serve-failed", err)
	}
	<-done
	s.DrainBackground()
	events.Event("shutdown-complete", nil)
}
