package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/obs"
	"csmaterials/internal/server"
	"csmaterials/internal/serving"
)

// The ladder times the same operations at each layer's public entry
// point, in-process, and then over loopback against the running
// server, on one corpus of the workload. Adjacent rungs differ by one
// layer, so their difference is that layer's self time. Only these
// entry points are used, so refactoring a layer's inside cannot break
// the benchmark's build.

// requestTimeout is cmd/serve's default -request-timeout.
const requestTimeout = 30 * time.Second

const (
	readSamples   = 2000
	ingestSamples = 3
	editSamples   = 20
	computeReps   = 5
)

// ladderRead is the warm key the read rungs time.
var ladderRead = query{"agreement", [][2]string{{"group", "all"}}}

// discard is an http.ResponseWriter that keeps nothing, so encoding is
// timed without buffering the body.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(int)             {}

// inproc calls the server's handler with no network in between.
func inproc(h http.Handler, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// timed runs f under a child span of op and returns its duration.
func timed(op *span, name string, f func()) time.Duration {
	sp := op.child(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.end("")
	return d
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ladder runs every rung and returns the ladder's per-layer metrics.
func (r *runner) ladder(ctx context.Context, s *target, doc []byte) (map[string]metric, error) {
	var d dataset.Document
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, err
	}
	courses := d.Courses
	set := paperSet(courses)
	const id = "ladder"
	fail := func(what string, err error) (map[string]metric, error) {
		return nil, fmt.Errorf("ladder %s: %w", what, err)
	}

	// A production-configured server in this process: the cmd/serve
	// defaults, with the wide-event log written nowhere, behind the same
	// per-request http.TimeoutHandler (default -request-timeout) that
	// cmd/serve wraps it in, so loopback minus in-process is only the
	// network and http.Server.
	inner, err := server.NewWithOptions(server.Options{
		Tracer: obs.NewTracer(server.DefaultTraceBuffer, nil),
		Events: obs.NewLogger(io.Discard),
	})
	if err != nil {
		return fail("server", err)
	}
	defer inner.DrainBackground()
	srv := http.TimeoutHandler(inner, requestTimeout, `{"error":{"code":"timeout","message":"request timed out"}}`)
	for deadline := time.Now().Add(60 * time.Second); ; {
		if st, _ := inproc(srv, "GET", "/readyz", nil); st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			return fail("server", fmt.Errorf("in-process server not ready"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, h := range []func(method, path string, body []byte) (int, []byte){
		func(m, p string, b []byte) (int, []byte) { return inproc(srv, m, p, b) },
		func(m, p string, b []byte) (int, []byte) {
			var buf bytes.Buffer
			st, _, err := s.do(ctx, m, s.base+p, b, &buf)
			if err != nil {
				return 0, nil
			}
			return st, buf.Bytes()
		},
	} {
		if st, _ := h("PUT", "/api/v1/datasets/"+id, doc); st != http.StatusOK {
			return fail("PUT", fmt.Errorf("status %d", st))
		}
		if st, _ := h("POST", "/api/v1/batch", batchBody(id, set)); st != http.StatusOK {
			return fail("batch", fmt.Errorf("status %d", st))
		}
	}
	if err := s.waitDatasetsReady(ctx); err != nil {
		return fail("loopback", err)
	}

	// Engine and serving rungs over their own registry and cache.
	as, err := analyses.Default()
	if err != nil {
		return fail("registry", err)
	}
	reg := dataset.NewRegistry(nil)
	if _, err := reg.Put(id, courses); err != nil {
		return fail("put", err)
	}
	ex := engine.NewExecutor(as, engine.ExecutorOptions{Datasets: reg, Cache: serving.NewCache(server.DefaultCacheSize), StaleServe: true})
	for _, q := range set {
		if _, _, err := ex.RunOn(ctx, id, q.analysis, q.values()); err != nil {
			return fail("fill", err)
		}
	}

	// Read rungs: executor hit, JSON encode, in-process handler,
	// loopback HTTP to the real server.
	var hit, enc, local, wire []float64
	path := ladderRead.path(id)
	dw := &discard{h: http.Header{}}
	for i := 0; i < readSamples; i++ {
		op := r.tr.op("ladder.read")
		var v interface{}
		var out engine.Outcome
		hit = append(hit, us(timed(op, "engine.Executor.RunOn", func() {
			v, out, err = ex.RunOn(ctx, id, ladderRead.analysis, ladderRead.values())
		})))
		if err != nil || out.Cache != "hit" {
			return fail("read", fmt.Errorf("executor answered %q, %v", out.Cache, err))
		}
		env := struct {
			Data interface{} `json:"data"`
			Meta interface{} `json:"meta"`
		}{v, out}
		enc = append(enc, us(timed(op, "serving.WriteJSON", func() { serving.WriteJSON(dw, http.StatusOK, env) })))
		var st int
		local = append(local, us(timed(op, "server.ServeHTTP", func() { st, _ = inproc(srv, "GET", path, nil) })))
		if st != http.StatusOK {
			return fail("read", fmt.Errorf("in-process status %d", st))
		}
		var buf bytes.Buffer
		wire = append(wire, us(timed(op, "http.loopback", func() { st, _, err = s.do(ctx, "GET", s.base+path, nil, &buf) })))
		if err != nil || st != http.StatusOK {
			return fail("read", fmt.Errorf("loopback status %d, %v", st, err))
		}
		op.end("")
	}

	// Ingest rungs: registry put, batch vs serial on a cold executor,
	// each analysis's Compute, and the in-process PUT+batch.
	var put, batch, serial, inIngest []float64
	compute := map[string][]float64{}
	items := make([]engine.BatchItem, len(set))
	for i, q := range set {
		items[i] = q.batchItem(id)
	}
	for i := 0; i < ingestSamples; i++ {
		op := r.tr.op("ladder.ingest")
		fresh := dataset.NewRegistry(nil)
		put = append(put, ms(timed(op, "dataset.Registry.Put", func() { _, err = fresh.Put(id, courses) })))
		if err != nil {
			return fail("put", err)
		}
		cold := engine.NewExecutor(as, engine.ExecutorOptions{Datasets: fresh, Cache: serving.NewCache(server.DefaultCacheSize)})
		var res []engine.BatchResult
		batch = append(batch, ms(timed(op, "engine.Executor.RunBatch", func() { res = cold.RunBatch(ctx, items) })))
		for _, br := range res {
			if br.Error != nil {
				return fail("batch", br.Error)
			}
		}
		cold = engine.NewExecutor(as, engine.ExecutorOptions{Datasets: fresh, Cache: serving.NewCache(server.DefaultCacheSize)})
		serial = append(serial, ms(timed(op, "engine.Executor.RunOn*", func() {
			for _, q := range set {
				if _, _, e := cold.RunOn(ctx, id, q.analysis, q.values()); e != nil {
					err = e
				}
			}
		})))
		if err != nil {
			return fail("serial", err)
		}
		var st1, st2 int
		inIngest = append(inIngest, ms(timed(op, "server.ServeHTTP(PUT+batch)", func() {
			st1, _ = inproc(srv, "PUT", "/api/v1/datasets/"+id+"-i", doc)
			st2, _ = inproc(srv, "POST", "/api/v1/batch", batchBody(id+"-i", set))
		})))
		if st1 != http.StatusOK || st2 != http.StatusOK {
			return fail("ingest", fmt.Errorf("in-process status %d, %d", st1, st2))
		}
		op.end("")
	}
	snap, _ := reg.Get(id)
	for i := 0; i < computeReps; i++ {
		op := r.tr.op("ladder.compute")
		for _, name := range []string{"types", "agreement", "cluster"} {
			a, _ := as.Get(name)
			p, err := a.Parse(ladderRead.values())
			if err == nil {
				err = p.Validate()
			}
			if err != nil {
				return fail(name, err)
			}
			compute[name] = append(compute[name], ms(timed(op, "analyses."+name+".Compute", func() {
				_, err = a.Compute(ctx, snap.Repo(), p)
			})))
			if err != nil {
				return fail(name, err)
			}
		}
		op.end("")
	}

	// Edit rungs: one tag-set-keeping retag, applied to the registry,
	// reconciled by the executor, and PATCHed into the in-process
	// server followed by reads of the analysis set.
	vocab := map[string]bool{}
	for _, c := range dataset.Courses() {
		for t := range c.TagSet() {
			vocab[t] = true
		}
	}
	tags := sortedSet(vocab)
	rng := rand.New(rand.NewSource(r.seed))
	var apply, applyDelta, inEdit []float64
	for i := 0; i < editSamples; i++ {
		op := r.tr.op("ladder.edit")
		cur, _ := reg.Get(id)
		all := cur.Repo().Courses()
		ev, err := retag(rng, all[rng.Intn(len(all))], keepTags, tags)
		if err != nil {
			return fail("edit", err)
		}
		var next *dataset.Snapshot
		apply = append(apply, us(timed(op, "dataset.Registry.Apply", func() { next, err = reg.Apply(id, []dataset.Event{ev}) })))
		if err != nil {
			return fail("apply", err)
		}
		applyDelta = append(applyDelta, us(timed(op, "engine.Executor.ApplyDelta", func() { ex.ApplyDelta(ctx, id, next) })))
		body, _ := json.Marshal(struct {
			Events []dataset.Event `json:"events"`
		}{[]dataset.Event{ev}})
		bad := 0
		inEdit = append(inEdit, ms(timed(op, "server.ServeHTTP(PATCH+reads)", func() {
			if st, _ := inproc(srv, "PATCH", "/api/v1/datasets/"+id, body); st != http.StatusOK {
				bad++
			}
			for _, q := range set {
				if st, _ := inproc(srv, "GET", q.path(id), nil); st != http.StatusOK {
					bad++
				}
			}
		})))
		if bad > 0 {
			return fail("edit", fmt.Errorf("%d in-process requests failed", bad))
		}
		for _, q := range set { // refill what the delta invalidated
			if _, _, err := ex.RunOn(ctx, id, q.analysis, q.values()); err != nil {
				return fail("refill", err)
			}
		}
		op.end("")
	}

	m := map[string]metric{
		"engine.run_hit_us":       {median(hit), "us"},
		"serving.encode_us":       {median(enc), "us"},
		"server.read_inproc_us":   {median(local), "us"},
		"server.transport_us":     {median(wire) - median(local), "us"},
		"dataset.put_ms":          {median(put), "ms"},
		"engine.batch_ms":         {median(batch), "ms"},
		"engine.batch_serial_ms":  {median(serial), "ms"},
		"engine.batch_speedup":    {median(serial) / median(batch), "ratio"},
		"analyses.types_ms":       {median(compute["types"]), "ms"},
		"analyses.agreement_ms":   {median(compute["agreement"]), "ms"},
		"analyses.cluster_ms":     {median(compute["cluster"]), "ms"},
		"server.ingest_inproc_ms": {median(inIngest), "ms"},
		"server.edit_inproc_ms":   {median(inEdit), "ms"},
		"dataset.apply_us":        {median(apply), "us"},
		"engine.apply_delta_us":   {median(applyDelta), "us"},
	}
	r.printf("ladder read (%s on %d courses, %d samples, medians):", ladderRead.path(id), len(courses), readSamples)
	r.printf("  engine.Executor.RunOn hit   %9.2f us", median(hit))
	r.printf("  serving.WriteJSON           %9.2f us", median(enc))
	r.printf("  server.ServeHTTP in-process %9.2f us  (self, TimeoutHandler included: %.2f us = in-process - hit - encode)", median(local), median(local)-median(hit)-median(enc))
	r.printf("  loopback HTTP               %9.2f us  (transport self: %.2f us)", median(wire), median(wire)-median(local))
	r.printf("ladder ingest (%d samples): put %.2f ms, batch %.1f ms vs serial %.1f ms (speedup %.2f on %d workers), in-process PUT+batch %.1f ms",
		ingestSamples, median(put), median(batch), median(serial), median(serial)/median(batch), engine.DefaultBatchWorkers, median(inIngest))
	r.printf("ladder compute (group=all, %d reps): types %.1f ms, agreement %.2f ms, cluster %.2f ms",
		computeReps, median(compute["types"]), median(compute["agreement"]), median(compute["cluster"]))
	r.printf("ladder edit (%d samples): apply %.1f us, apply-delta %.1f us, in-process PATCH+%d reads %.2f ms",
		editSamples, median(apply), median(applyDelta), len(set), median(inEdit))
	return m, nil
}
