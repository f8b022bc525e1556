package server

import (
	"net/http"
	"sort"
	"strconv"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/obs"
	"csmaterials/internal/resilience"
)

// handleProm serves GET /metrics in Prometheus text exposition format:
// the per-route HTTP histograms, the cache, shedder, breaker and engine
// counters, and the per-analysis per-stage latency histograms
// aggregated from request traces.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	fams := s.promFamilies()
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteExposition(w, fams)
}

// promFamilies assembles every metric family in fixed family order
// with sorted label sets, so the exposition shape (names, types,
// label keys) is stable across runs and scrape-diffable.
func (s *Server) promFamilies() []obs.Family {
	var fams []obs.Family

	// HTTP layer: uptime, in-flight, per-route counters + histograms.
	ex := s.metrics.Export()
	fams = append(fams,
		obs.Family{Name: "csm_uptime_seconds", Help: "Seconds since the metrics registry was created.", Type: obs.Gauge,
			Samples: []obs.Sample{{Value: ex.UptimeSeconds}}},
		obs.Family{Name: "csm_http_in_flight", Help: "Requests currently being served.", Type: obs.Gauge,
			Samples: []obs.Sample{{Value: float64(ex.InFlight)}}},
	)
	reqs := obs.Family{Name: "csm_http_requests_total", Help: "Completed requests by route pattern and status code.", Type: obs.Counter}
	for _, rt := range ex.Routes {
		for _, sc := range rt.ByStatus {
			reqs.Samples = append(reqs.Samples, obs.Sample{
				Labels: []obs.Label{{Name: "route", Value: rt.Route}, {Name: "status", Value: strconv.Itoa(sc.Status)}},
				Value:  float64(sc.Count),
			})
		}
	}
	fams = append(fams, reqs)

	durs := obs.Family{Name: "csm_http_request_duration_seconds", Help: "Request latency by route pattern.", Type: obs.Histogram}
	for _, rt := range ex.Routes {
		h := rt.Latency
		durs.Samples = append(durs.Samples, obs.HistogramSamples(
			[]obs.Label{{Name: "route", Value: rt.Route}},
			h.Bounds, h.Counts, h.Sum, h.Count)...)
	}
	fams = append(fams, durs)

	// Cache: global aggregates, then the per-dataset partition so one
	// tenant's budget pressure is visible in isolation.
	cs := s.cache.Stats()
	fams = append(fams,
		counterFam("csm_cache_hits_total", "Lookups that found a held answer.", cs.Hits),
		counterFam("csm_cache_misses_total", "Lookups that found no held answer.", cs.Misses),
		counterFam("csm_cache_shared_flights_total", "Requests answered by another caller's singleflight.", cs.Shared),
		counterFam("csm_cache_evictions_total", "LRU evictions.", cs.Evictions),
		gaugeFam("csm_cache_size", "Answers currently held.", float64(cs.Size)),
		gaugeFam("csm_cache_capacity", "Cache capacity in answers.", float64(cs.Capacity)),
	)
	// As with the tenant families below, a single-tenant deployment
	// (only the default dataset's scope) keeps the legacy exposition.
	_, cacheOnlyDefault := cs.Scopes[dataset.DefaultID]
	if len(cs.Scopes) > 1 || (len(cs.Scopes) == 1 && !cacheOnlyDefault) {
		scopes := make([]string, 0, len(cs.Scopes))
		for scope := range cs.Scopes {
			scopes = append(scopes, scope)
		}
		sort.Strings(scopes)
		dcBudget := obs.Family{Name: "csm_dataset_cache_budget", Help: "Cache budget in answers per dataset.", Type: obs.Gauge}
		dcSize := obs.Family{Name: "csm_dataset_cache_size", Help: "Answers held per dataset.", Type: obs.Gauge}
		dcHits := obs.Family{Name: "csm_dataset_cache_hits_total", Help: "Lookups that found a held answer per dataset.", Type: obs.Counter}
		dcMisses := obs.Family{Name: "csm_dataset_cache_misses_total", Help: "Lookups that found no held answer per dataset.", Type: obs.Counter}
		dcEvict := obs.Family{Name: "csm_dataset_cache_evictions_total", Help: "Budget-scoped LRU evictions per dataset.", Type: obs.Counter}
		for _, scope := range scopes {
			sc := cs.Scopes[scope]
			l := []obs.Label{{Name: "dataset", Value: scope}}
			dcBudget.Samples = append(dcBudget.Samples, obs.Sample{Labels: l, Value: float64(sc.Budget)})
			dcSize.Samples = append(dcSize.Samples, obs.Sample{Labels: l, Value: float64(sc.Size)})
			dcHits.Samples = append(dcHits.Samples, obs.Sample{Labels: l, Value: float64(sc.Hits)})
			dcMisses.Samples = append(dcMisses.Samples, obs.Sample{Labels: l, Value: float64(sc.Misses)})
			dcEvict.Samples = append(dcEvict.Samples, obs.Sample{Labels: l, Value: float64(sc.Evictions)})
		}
		fams = append(fams, dcBudget, dcSize, dcHits, dcMisses, dcEvict)
	}

	// Resilience: two-level admission limiter (global + per-tenant
	// quotas) + per-analysis breakers.
	sh, tenants := s.limiter.Stats()
	fams = append(fams,
		gaugeFam("csm_shed_max_in_flight", "In-flight bound before shedding (0 = unlimited).", float64(sh.MaxInFlight)),
		gaugeFam("csm_shed_in_flight", "Requests currently inside the shedder.", float64(sh.InFlight)),
		counterFam("csm_shed_admitted_total", "Requests admitted by the load shedder.", sh.Admitted),
		counterFam("csm_shed_rejected_total", "Requests shed with 429 (capacity + quota).", sh.Shed),
	)
	// Single-tenant deployments (only the default dataset) keep the
	// legacy exposition: no per-tenant admission families.
	_, onlyDefault := tenants[dataset.DefaultID]
	multiTenant := len(tenants) > 1 || (len(tenants) == 1 && !onlyDefault)
	if multiTenant {
		ids := make([]string, 0, len(tenants))
		for id := range tenants {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		tQuota := obs.Family{Name: "csm_tenant_quota", Help: "In-flight admission quota per dataset (0 = unlimited).", Type: obs.Gauge}
		tInFlight := obs.Family{Name: "csm_tenant_in_flight", Help: "Requests currently admitted per dataset.", Type: obs.Gauge}
		tAdmitted := obs.Family{Name: "csm_tenant_admitted_total", Help: "Requests admitted per dataset.", Type: obs.Counter}
		tShed := obs.Family{Name: "csm_tenant_shed_total", Help: "Requests shed per dataset (capacity + quota).", Type: obs.Counter}
		tShedQuota := obs.Family{Name: "csm_tenant_shed_quota_total", Help: "Requests shed per dataset for exceeding its own quota.", Type: obs.Counter}
		for _, id := range ids {
			tn := tenants[id]
			l := []obs.Label{{Name: "dataset", Value: id}}
			tQuota.Samples = append(tQuota.Samples, obs.Sample{Labels: l, Value: float64(tn.Quota)})
			tInFlight.Samples = append(tInFlight.Samples, obs.Sample{Labels: l, Value: float64(tn.InFlight)})
			tAdmitted.Samples = append(tAdmitted.Samples, obs.Sample{Labels: l, Value: float64(tn.Admitted)})
			tShed.Samples = append(tShed.Samples, obs.Sample{Labels: l, Value: float64(tn.Shed)})
			tShedQuota.Samples = append(tShedQuota.Samples, obs.Sample{Labels: l, Value: float64(tn.ShedQuota)})
		}
		fams = append(fams, tQuota, tInFlight, tAdmitted, tShed, tShedQuota)
	}
	if s.breakers != nil {
		bs := s.breakers.Stats()
		names := make([]string, 0, len(bs))
		for name := range bs {
			names = append(names, name)
		}
		sort.Strings(names)
		state := obs.Family{Name: "csm_breaker_state", Help: "Circuit state per (dataset, analysis): 0 closed, 1 half-open, 2 open.", Type: obs.Gauge}
		var succ, fail, rej, opens obs.Family
		succ = obs.Family{Name: "csm_breaker_successes_total", Help: "Recorded successes per (dataset, analysis) breaker.", Type: obs.Counter}
		fail = obs.Family{Name: "csm_breaker_failures_total", Help: "Recorded failures per (dataset, analysis) breaker.", Type: obs.Counter}
		rej = obs.Family{Name: "csm_breaker_rejected_total", Help: "Requests rejected by an open circuit per (dataset, analysis).", Type: obs.Counter}
		opens = obs.Family{Name: "csm_breaker_opens_total", Help: "Times each (dataset, analysis) circuit opened.", Type: obs.Counter}
		for _, name := range names {
			b := bs[name]
			l := scopeLabels(name)
			state.Samples = append(state.Samples, obs.Sample{Labels: l, Value: breakerStateValue(b.State)})
			succ.Samples = append(succ.Samples, obs.Sample{Labels: l, Value: float64(b.Successes)})
			fail.Samples = append(fail.Samples, obs.Sample{Labels: l, Value: float64(b.Failures)})
			rej.Samples = append(rej.Samples, obs.Sample{Labels: l, Value: float64(b.Rejected)})
			opens.Samples = append(opens.Samples, obs.Sample{Labels: l, Value: float64(b.Opens)})
		}
		fams = append(fams, state, succ, fail, rej, opens)
	}

	// Engine executor: per-(dataset, analysis) compute accounting +
	// batch totals. Scope keys sort before splitting, so the sample
	// order is deterministic even though it is not label-lexicographic.
	es := s.exec.Stats()
	names := make([]string, 0, len(es.Analyses))
	for name := range es.Analyses {
		names = append(names, name)
	}
	sort.Strings(names)
	computes := obs.Family{Name: "csm_analysis_computes_total", Help: "Computes started per (dataset, analysis).", Type: obs.Counter}
	failures := obs.Family{Name: "csm_analysis_failures_total", Help: "Compute failures per (dataset, analysis).", Type: obs.Counter}
	hits := obs.Family{Name: "csm_analysis_cache_hits_total", Help: "Requests served from cache or a shared flight per (dataset, analysis).", Type: obs.Counter}
	misses := obs.Family{Name: "csm_analysis_cache_misses_total", Help: "Requests that computed per (dataset, analysis).", Type: obs.Counter}
	for _, name := range names {
		a := es.Analyses[name]
		l := scopeLabels(name)
		computes.Samples = append(computes.Samples, obs.Sample{Labels: l, Value: float64(a.Computes)})
		failures.Samples = append(failures.Samples, obs.Sample{Labels: l, Value: float64(a.Failures)})
		hits.Samples = append(hits.Samples, obs.Sample{Labels: l, Value: float64(a.CacheHits)})
		misses.Samples = append(misses.Samples, obs.Sample{Labels: l, Value: float64(a.CacheMisses)})
	}
	fams = append(fams, computes, failures, hits, misses,
		counterFam("csm_batch_calls_total", "Batch requests served.", es.BatchCalls),
		counterFam("csm_batch_items_total", "Batch items executed.", es.BatchItems),
		gaugeFam("csm_batch_workers", "Configured batch worker-pool size.", float64(es.BatchWorkers)),
	)

	// Refresh: per-dataset PATCH/PUT refresh accounting, invalidation and
	// NNMF iterations. Emitted only once a dataset has refreshed, so cold
	// single-tenant scrapes keep the legacy exposition.
	if len(es.Refresh) > 0 {
		refreshIDs := make([]string, 0, len(es.Refresh))
		for id := range es.Refresh {
			refreshIDs = append(refreshIDs, id)
		}
		sort.Strings(refreshIDs)
		rfTotal := obs.Family{Name: "csm_refresh_total", Help: "Serving-layer refreshes per dataset by kind (delta = after a PATCH, full = after a PUT).", Type: obs.Counter}
		rfInval := obs.Family{Name: "csm_refresh_invalidated_total", Help: "Cache entries dropped by refreshes per dataset: answers whose input changed.", Type: obs.Counter}
		rfIters := obs.Family{Name: "csm_refresh_iterations_total", Help: "Iterations-to-converge accumulated per dataset by compute mode.", Type: obs.Counter}
		for _, id := range refreshIDs {
			rs := es.Refresh[id]
			l := []obs.Label{{Name: "dataset", Value: id}}
			rfTotal.Samples = append(rfTotal.Samples,
				obs.Sample{Labels: []obs.Label{{Name: "dataset", Value: id}, {Name: "kind", Value: "delta"}}, Value: float64(rs.Delta)},
				obs.Sample{Labels: []obs.Label{{Name: "dataset", Value: id}, {Name: "kind", Value: "full"}}, Value: float64(rs.Full)})
			rfInval.Samples = append(rfInval.Samples, obs.Sample{Labels: l, Value: float64(rs.Invalidated)})
			rfIters.Samples = append(rfIters.Samples,
				obs.Sample{Labels: []obs.Label{{Name: "dataset", Value: id}, {Name: "mode", Value: "cold"}}, Value: float64(rs.ColdIterations)})
		}
		fams = append(fams, rfTotal, rfInval, rfIters)
	}

	// Dataset registry: one gauge set per registered dataset.
	metas := s.datasets.List()
	dsRev := obs.Family{Name: "csm_dataset_revision", Help: "Current revision per dataset.", Type: obs.Gauge}
	dsCourses := obs.Family{Name: "csm_dataset_courses", Help: "Courses per dataset.", Type: obs.Gauge}
	dsMaterials := obs.Family{Name: "csm_dataset_materials", Help: "Materials per dataset.", Type: obs.Gauge}
	sort.Slice(metas, func(i, j int) bool { return metas[i].ID < metas[j].ID })
	for _, m := range metas {
		l := []obs.Label{{Name: "dataset", Value: m.ID}}
		dsRev.Samples = append(dsRev.Samples, obs.Sample{Labels: l, Value: float64(m.Revision)})
		dsCourses.Samples = append(dsCourses.Samples, obs.Sample{Labels: l, Value: float64(m.Courses)})
		dsMaterials.Samples = append(dsMaterials.Samples, obs.Sample{Labels: l, Value: float64(m.Materials)})
	}
	idleFam := obs.Family{Name: "csm_dataset_idle_reclaims_total", Help: "Times each dataset's warm state (search index + cache entries) was reclaimed after idling past -idle-ttl.", Type: obs.Counter}
	reclaims := s.idleReclaimTotals()
	reclaimIDs := make([]string, 0, len(reclaims))
	for id := range reclaims {
		reclaimIDs = append(reclaimIDs, id)
	}
	sort.Strings(reclaimIDs)
	for _, id := range reclaimIDs {
		idleFam.Samples = append(idleFam.Samples, obs.Sample{
			Labels: []obs.Label{{Name: "dataset", Value: id}},
			Value:  float64(reclaims[id]),
		})
	}
	fams = append(fams,
		gaugeFam("csm_datasets", "Registered datasets.", float64(len(metas))),
		dsRev, dsCourses, dsMaterials, idleFam,
	)

	// Tracing: per-(dataset, analysis, stage) latency histograms + ring
	// counters. Spans recorded outside any dataset scope fall back to
	// the default dataset label.
	stageFam := obs.Family{Name: "csm_stage_duration_seconds", Help: "Ladder stage latency from request traces, by dataset, analysis, and stage.", Type: obs.Histogram}
	for _, st := range s.tracer.StageSnapshot() {
		ds := st.Dataset
		if ds == "" {
			ds = dataset.DefaultID
		}
		labels := []obs.Label{{Name: "analysis", Value: st.Analysis}, {Name: "dataset", Value: ds}, {Name: "stage", Value: st.Stage}}
		stageFam.Samples = append(stageFam.Samples, obs.HistogramSamples(
			labels, st.Bounds, st.Counts, st.Sum, st.Count)...)
	}
	ts := s.tracer.Stats()
	fams = append(fams, stageFam,
		counterFam("csm_traces_total", "Traces finished.", ts.Finished),
		counterFam("csm_traces_sampled_out_total", "Requests that ran untraced under -trace-sample.", ts.SampledOut),
		gaugeFam("csm_trace_sample_rate", "Probability a request is traced (-trace-sample).", ts.SampleRate),
		gaugeFam("csm_trace_ring_size", "Finished traces retained for /debug/trace.", float64(ts.RingSize)),
		gaugeFam("csm_trace_ring_capacity", "Trace ring-buffer capacity.", float64(ts.Capacity)),
		counterFam("csm_log_dropped_total", "Wide-event log lines lost to encode/write failures.", s.events.Drops()),
	)

	// Fleet: only in multi-replica mode, so single-process deployments
	// keep the legacy exposition.
	if s.fleet != nil {
		fams = append(fams, s.promFleetFamilies()...)
	}
	return fams
}

// scopeLabels expands an executor/breaker scope name into its
// {analysis, dataset} label pair (alphabetical label order, per the
// exposition's stable-shape contract).
func scopeLabels(scope string) []obs.Label {
	ds, analysis := engine.SplitScope(scope)
	return []obs.Label{{Name: "analysis", Value: analysis}, {Name: "dataset", Value: ds}}
}

func breakerStateValue(state string) float64 {
	switch state {
	case resilience.Open.String():
		return 2
	case resilience.HalfOpen.String():
		return 1
	}
	return 0
}

func counterFam(name, help string, v uint64) obs.Family {
	return obs.Family{Name: name, Help: help, Type: obs.Counter, Samples: []obs.Sample{{Value: float64(v)}}}
}

func gaugeFam(name, help string, v float64) obs.Family {
	return obs.Family{Name: name, Help: help, Type: obs.Gauge, Samples: []obs.Sample{{Value: v}}}
}
