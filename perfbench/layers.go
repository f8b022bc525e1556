package main

// counterMetric derives one per-layer metric from the server's counters
// between two boundaries that span ops ops.
type counterMetric struct {
	name, unit string
	f          func(a, b counters, ops float64) float64
}

func perOp(family string, scale float64) func(a, b counters, ops float64) float64 {
	return func(a, b counters, ops float64) float64 { return delta(a, b, family) * scale / ops }
}

func ratio(num string, den ...string) func(a, b counters, ops float64) float64 {
	return func(a, b counters, _ float64) float64 {
		d := 0.0
		for _, f := range den {
			d += delta(a, b, f)
		}
		if d == 0 {
			return 0
		}
		return delta(a, b, num) / d
	}
}

// counterMetrics are read from /metrics and MemStats at the timed
// phase's boundaries in every run.
var counterMetrics = []counterMetric{
	{"serving.hit_ratio", "ratio", ratio("csm_cache_hits_total", "csm_cache_hits_total", "csm_cache_misses_total")},
	{"serving.shared_flights_per_op", "count", perOp("csm_cache_shared_flights_total", 1)},
	{"serving.evictions_per_op", "count", perOp("csm_cache_evictions_total", 1)},
	{"engine.computes_per_op", "count", perOp("csm_analysis_computes_total", 1)},
	{"engine.invalidated_per_op", "count", perOp("csm_refresh_invalidated_total", 1)},
	{"engine.migrated_per_op", "count", perOp("csm_refresh_migrated_total", 1)},
	{"engine.warm_adopt_ratio", "ratio", ratio("csm_refresh_warm_starts_total", "csm_refresh_warm_starts_total", "csm_refresh_warm_fallbacks_total")},
	{"nnmf.iterations_cold_per_op", "count", perOp("csm_refresh_iterations_total/cold", 1)},
	{"nnmf.iterations_warm_per_op", "count", perOp("csm_refresh_iterations_total/warm", 1)},
	{"obs.stage.parse_ms_per_op", "ms", perOp("csm_stage_duration_seconds_sum/parse", 1e3)},
	{"obs.stage.cache-hit_ms_per_op", "ms", perOp("csm_stage_duration_seconds_sum/cache-hit", 1e3)},
	{"obs.stage.compute_ms_per_op", "ms", perOp("csm_stage_duration_seconds_sum/compute", 1e3)},
	{"obs.stage.singleflight-join_ms_per_op", "ms", perOp("csm_stage_duration_seconds_sum/singleflight-join", 1e3)},
	{"runtime.alloc_kb_per_op", "KB", perOp("mem.TotalAlloc", 1.0/1024)},
	{"runtime.mallocs_per_op", "count", perOp("mem.Mallocs", 1)},
	{"runtime.gc_per_kop", "count", func(a, b counters, ops float64) float64 {
		return (delta(a, b, "mem.NumGC") - delta(a, b, "mem.NumForcedGC")) * 1000 / ops
	}},
}

// counterMetrics evaluates every counter metric over the whole phase,
// prints each with its spread across the rounds, and returns them with
// the response size and host steal.
func (r *runner) counterMetrics(bounds []counters, roundOps []int, ph *phase, steal float64) map[string]metric {
	out := map[string]metric{}
	first, last := bounds[0], bounds[len(bounds)-1]
	for _, m := range counterMetrics {
		v := m.f(first, last, float64(ph.attempted))
		per := make([]float64, 0, rounds)
		for k := 1; k < len(bounds); k++ {
			per = append(per, m.f(bounds[k-1], bounds[k], float64(roundOps[k-1])))
		}
		out[m.name] = metric{v, m.unit}
		r.printf("layer %s = %.6g %s (rounds %v, spread %.2f%%)", m.name, v, m.unit, fmtList(per), 100*spread(per))
	}
	out["serving.resp_kb_per_op"] = metric{float64(ph.respBytes) / 1024 / float64(ph.attempted), "KB"}
	out["loadgen.steal_pct"] = metric{steal, "%"}
	for _, k := range []string{"serving.resp_kb_per_op", "loadgen.steal_pct"} {
		r.printf("layer %s = %.6g %s", k, out[k].Value, out[k].Unit)
	}
	return out
}
