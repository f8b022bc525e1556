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
	"csmaterials/internal/materials"
)

// editTenants is how many tenant corpora the edit workloads PATCH.
const editTenants = 2

// editRefresh: one connection in a closed loop PATCHes one retag event
// onto a tenant, then reads that tenant's whole analysis set and checks
// every read reports the revision the PATCH returned. The class (tag
// set kept or changed) is fixed per workload, so each workload's
// latency has one mode.
type editRefresh struct {
	cls     editClass
	tenants []string
	initial map[string][]*materials.Course
	docs    [][]byte
	set     map[string][]query
	events  []dataset.Event
	tenant  []string // tenant of each event
	bodies  [][]byte // PATCH body of each event
	rev     []uint64 // revision each PATCH must return
	// oracleReads are the reads of edit oracleOp, checked after the
	// timed phase against a cold executor over the same events.
	oracleReads [][]byte

	// The generator's state: the seed's stream, the tenants' history
	// as the server will see it, the tags an edit may add and the
	// current block's course order.
	rng   *rand.Rand
	reg   *dataset.Registry
	vocab []string
	order []int
}

// editBlock is the number of courses of a tenant corpus: edits come in
// blocks of this many, one tenant per block, each block editing every
// course of its tenant once in a seeded order. The seed picks the
// order, the material and the tag, while every block edits each course
// once, which fixes how much recompute a block costs.
const editBlock = 20

// oracleOp is the edit whose reads the oracle checks: the last of the
// first block, which every run reaches.
const oracleOp = editBlock - 1

func newEditRefresh(rng *rand.Rand, cls editClass) (*editRefresh, error) {
	w := &editRefresh{cls: cls, initial: map[string][]*materials.Course{}, set: map[string][]query{},
		rng: rng, reg: dataset.NewRegistry(nil)}
	vocab := map[string]bool{}
	for _, c := range dataset.Courses() {
		for t := range c.TagSet() {
			vocab[t] = true
		}
	}
	w.vocab = sortedSet(vocab)
	for i := 0; i < editTenants; i++ {
		id := tenantName(rng, "e")
		c := tenantCorpus(rng)
		w.tenants = append(w.tenants, id)
		w.docs = append(w.docs, encodeDoc(c))
		w.set[id] = paperSet(c)
		if _, err := w.reg.Put(id, c); err != nil {
			return nil, err
		}
		// Put shares the course values; keep a private copy for the
		// oracle's own registry.
		var again dataset.Document
		if err := json.Unmarshal(w.docs[i], &again); err != nil {
			return nil, err
		}
		if len(again.Courses) != editBlock {
			return nil, fmt.Errorf("tenant corpus has %d courses, want %d", len(again.Courses), editBlock)
		}
		w.initial[id] = again.Courses
	}
	return w, nil
}

func (w *editRefresh) block() int { return editBlock }

// grow generates edits up to n, applying each to the generator's own
// registry so the next one is drawn against the corpus the server will
// hold, and checking each against its class.
func (w *editRefresh) grow(n int) error {
	for i := len(w.events); i < n; i++ {
		id := w.tenants[(i/editBlock)%len(w.tenants)]
		if i%editBlock == 0 {
			w.order = w.rng.Perm(editBlock)
		}
		snap, _ := w.reg.Get(id)
		course := snap.Repo().Course(w.initial[id][w.order[i%editBlock]].ID)
		ev, err := retag(w.rng, course, w.cls, w.vocab)
		if err != nil {
			return err
		}
		next, err := w.reg.Apply(id, []dataset.Event{ev})
		if err != nil {
			return fmt.Errorf("generated edit %d does not apply: %w", i, err)
		}
		if next.Delta().TagChanges[ev.Course].Empty() != (w.cls == keepTags) {
			return fmt.Errorf("generated edit %d on %s is not of class %s", i, ev.Course, w.cls)
		}
		body, err := json.Marshal(struct {
			Events []dataset.Event `json:"events"`
		}{[]dataset.Event{ev}})
		if err != nil {
			return err
		}
		w.events = append(w.events, ev)
		w.tenant = append(w.tenant, id)
		w.bodies = append(w.bodies, body)
		w.rev = append(w.rev, next.Revision())
	}
	return nil
}

func (w *editRefresh) conns() int { return 1 }

func (w *editRefresh) setup(ctx context.Context, s *target) error {
	var buf bytes.Buffer
	for i, id := range w.tenants {
		if err := expect(s.do(ctx, "PUT", s.base+"/api/v1/datasets/"+id, w.docs[i], &buf)); err != nil {
			return fmt.Errorf("PUT %s: %w", id, err)
		}
		if _, err := runBatch(ctx, s, id, w.set[id], &buf); err != nil {
			return err
		}
	}
	return s.waitDatasetsReady(ctx)
}

func (w *editRefresh) run(ctx context.Context, s *target, tr *tracer, from, to int, ph *phase) {
	var buf bytes.Buffer
	var recs []time.Duration
	var fails []string
	var bytesRead int64
	attempted := 0
	for i := from; i < to && ctx.Err() == nil; i++ {
		id := w.tenant[i]
		attempted++
		set := w.set[id]
		reads := make([][]byte, 0, len(set))
		statuses := make([]int, 0, len(set))
		op := tr.op("edit." + w.cls.String())
		call := op.child("http.patch")
		t0 := time.Now()
		st, trace, err := s.do(ctx, "PATCH", s.base+"/api/v1/datasets/"+id, w.bodies[i], &buf)
		call.end(trace)
		bytesRead += int64(buf.Len())
		if err != nil || st != http.StatusOK {
			op.end("")
			fails = append(fails, fmt.Sprintf("PATCH %s: status %d %v", id, st, err))
			continue
		}
		patched := append([]byte(nil), buf.Bytes()...)
		ok := true
		for _, q := range set {
			call := op.child("http.get")
			st, trace, err := s.do(ctx, "GET", s.base+q.path(id), nil, &buf)
			call.end(trace)
			if err != nil {
				fails = append(fails, fmt.Sprintf("GET %s: %v", q.path(id), err))
				ok = false
				break
			}
			bytesRead += int64(buf.Len())
			statuses = append(statuses, st)
			reads = append(reads, append([]byte(nil), buf.Bytes()...))
		}
		d := time.Since(t0)
		op.end("")
		tr.sample(ctx, s, op, d)
		if !ok {
			continue
		}
		recs = append(recs, d)
		if err := w.checkOp(i, patched, set, statuses, reads); err != nil {
			fails = append(fails, err.Error())
		}
		if i == oracleOp {
			w.oracleReads = reads
		}
	}
	ph.add(recs, fails, attempted, bytesRead)
}

// checkOp checks, after the op's time is taken, that the PATCH returned
// the expected revision and every read answered 200 at that revision.
func (w *editRefresh) checkOp(i int, patched []byte, set []query, statuses []int, reads [][]byte) error {
	var meta struct {
		Data struct {
			Revision uint64 `json:"revision"`
		} `json:"data"`
	}
	if err := json.Unmarshal(patched, &meta); err != nil {
		return fmt.Errorf("edit %d: PATCH body: %v", i, err)
	}
	if meta.Data.Revision != w.rev[i] {
		return fmt.Errorf("edit %d: PATCH returned revision %d, want %d", i, meta.Data.Revision, w.rev[i])
	}
	for j, q := range set {
		if statuses[j] != http.StatusOK {
			return fmt.Errorf("edit %d: GET %s: status %d", i, q.path(w.tenant[i]), statuses[j])
		}
		env, err := decodeEnvelope(reads[j])
		if err != nil {
			return fmt.Errorf("edit %d: GET %s: %v", i, q.path(w.tenant[i]), err)
		}
		if env.Meta.Revision != w.rev[i] {
			return fmt.Errorf("edit %d: GET %s answered revision %d, want %d", i, q.path(w.tenant[i]), env.Meta.Revision, w.rev[i])
		}
	}
	return nil
}

// verify replays the oracle op's tenant history into a fresh registry
// and compares the kept reads with a cold executor over that snapshot.
func (w *editRefresh) verify(ctx context.Context, _ *phase) error {
	if w.oracleReads == nil {
		return fmt.Errorf("edit %d was not read back", oracleOp)
	}
	id := w.tenant[oracleOp]
	o, err := newOracle(id, w.initial[id])
	if err != nil {
		return err
	}
	for i := 0; i <= oracleOp; i++ {
		if w.tenant[i] != id {
			continue
		}
		if _, err := o.reg.Apply(id, []dataset.Event{w.events[i]}); err != nil {
			return err
		}
	}
	for j, q := range w.set[id] {
		env, err := decodeEnvelope(w.oracleReads[j])
		if err != nil {
			return err
		}
		if err := o.check(ctx, id, q, env.Data); err != nil {
			return fmt.Errorf("edit %d: %w", oracleOp, err)
		}
	}
	return nil
}

func (w *editRefresh) corpus() []byte { return w.docs[0] }
