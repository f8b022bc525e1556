package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"csmaterials/internal/dataset"
)

// ingestTenants is how many tenant IDs ingest-cold rotates over; each
// PUT replaces the tenant's previous corpus.
const ingestTenants = 3

// ingestCold: one connection in a closed loop PUTs a fresh corpus, then
// POSTs one batch of the paper's analysis set for it.
type ingestCold struct {
	tenants []string
	initial [][]byte // set-up corpus per tenant
	docs    [][]byte // one fresh corpus per timed op
	batch   map[string][]byte
	set     []query
	// oracleBody is the batch response of op 0, checked after the
	// timed phase against a cold in-process executor.
	oracleBody []byte
	rng        *rand.Rand
}

func newIngestCold(rng *rand.Rand) *ingestCold {
	w := &ingestCold{batch: map[string][]byte{}, rng: rng}
	for i := 0; i < ingestTenants; i++ {
		id := tenantName(rng, "i")
		c := tenantCorpus(rng)
		w.tenants = append(w.tenants, id)
		w.initial = append(w.initial, encodeDoc(c))
		if w.set == nil {
			w.set = paperSet(c) // every corpus has the seed corpus's groups
		}
	}
	for _, id := range w.tenants {
		w.batch[id] = batchBody(id, w.set)
	}
	return w
}

// block is one op per tenant.
func (w *ingestCold) block() int { return ingestTenants }

// grow draws fresh corpora up to n.
func (w *ingestCold) grow(n int) error {
	for len(w.docs) < n {
		w.docs = append(w.docs, encodeDoc(tenantCorpus(w.rng)))
	}
	return nil
}

func (w *ingestCold) conns() int { return 1 }

// setup loads every tenant and runs its batch once, so each timed PUT
// replaces a corpus whose analyses are cached, as in steady use.
func (w *ingestCold) setup(ctx context.Context, s *target) error {
	var buf bytes.Buffer
	for i, id := range w.tenants {
		if err := expect(s.do(ctx, "PUT", s.base+"/api/v1/datasets/"+id, w.initial[i], &buf)); err != nil {
			return fmt.Errorf("PUT %s: %w", id, err)
		}
		if _, err := runBatch(ctx, s, id, w.set, &buf); err != nil {
			return err
		}
	}
	return s.waitDatasetsReady(ctx)
}

func (w *ingestCold) run(ctx context.Context, s *target, tr *tracer, from, to int, ph *phase) {
	var buf bytes.Buffer
	var recs []time.Duration
	var fails []string
	var bytesRead int64
	attempted := 0
	for i := from; i < to && ctx.Err() == nil; i++ {
		id := w.tenants[i%len(w.tenants)]
		attempted++
		op := tr.op("ingest")
		call := op.child("http.put")
		t0 := time.Now()
		st, trace, err := s.do(ctx, "PUT", s.base+"/api/v1/datasets/"+id, w.docs[i], &buf)
		call.end(trace)
		bytesRead += int64(buf.Len())
		if err != nil || st != http.StatusOK {
			op.end("")
			fails = append(fails, fmt.Sprintf("PUT %s: status %d %v", id, st, err))
			continue
		}
		call = op.child("http.batch")
		st, trace, err = s.do(ctx, "POST", s.base+"/api/v1/batch", w.batch[id], &buf)
		d := time.Since(t0)
		call.end(trace)
		op.end("")
		tr.sample(ctx, s, op, d)
		bytesRead += int64(buf.Len())
		recs = append(recs, d)
		if err != nil || st != http.StatusOK {
			fails = append(fails, fmt.Sprintf("batch %s: status %d %v", id, st, err))
			continue
		}
		if _, err := batchItems(buf.Bytes(), len(w.set)); err != nil {
			fails = append(fails, fmt.Sprintf("batch %s: %v", id, err))
		}
		if i == 0 {
			w.oracleBody = append([]byte(nil), buf.Bytes()...)
		}
	}
	ph.add(recs, fails, attempted, bytesRead)
}

// verify compares op 0's batch with a cold in-process executor over the
// same document.
func (w *ingestCold) verify(ctx context.Context, _ *phase) error {
	if w.oracleBody == nil {
		return fmt.Errorf("op 0 produced no batch to check")
	}
	var doc dataset.Document
	if err := json.Unmarshal(w.docs[0], &doc); err != nil {
		return err
	}
	id := w.tenants[0]
	o, err := newOracle(id, doc.Courses)
	if err != nil {
		return err
	}
	items, err := batchItems(w.oracleBody, len(w.set))
	if err != nil {
		return err
	}
	for i, q := range w.set {
		if err := o.check(ctx, id, q, items[i].Data); err != nil {
			return fmt.Errorf("ingest op 0: %w", err)
		}
	}
	return nil
}

func (w *ingestCold) corpus() []byte { return w.initial[0] }
