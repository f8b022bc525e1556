package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
)

// readShares fixes the read-hot route mix, in reads per hundred. The
// shares are assumed, not taken from measured traffic: no access log
// of the server exists to take them from. They weight read_p50_ms,
// cpu_ms_per_op and the response bytes per read, so a read-path change
// should not be tuned to them. The seed picks which keys each route
// reads, never how often a route is read, so response bytes per read
// hardly move from seed to seed.
var readShares = []struct {
	route string
	per   int
}{
	{"agreement", 24}, {"types", 20}, {"cluster", 14}, {"anchors", 16}, {"audit", 16},
	{"course", 4}, {"search", 6},
}

// searchPrefixes are CS2013 knowledge areas every corpus covers.
var searchPrefixes = []string{"AL", "SDF", "PL", "SE", "DS", "AR", "OS", "HCI"}

// readTenants is how many tenant corpora read-hot adds to default. With
// three datasets the default 256-entry cache gives each an 85-entry
// partition, above the 59 analysis keys a dataset is read at.
const readTenants = 2

// readHot: two connections in a closed loop send warm GETs.
type readHot struct {
	tenants []string
	docs    [][]byte
	fill    map[string][]query // dataset -> analysis keys filled at set-up
	reads   []string           // the timed GETs, in order
	paths   []string           // the distinct paths of reads
	deck    []string           // one block of routes, in seeded order
	keys    map[string][]string
	next    map[string]int // reads drawn so far per route
	// ref holds each path's response captured at set-up. A timed
	// analysis or course read must return it byte for byte (data
	// unchanged and meta.cache=hit). A search read is checked for 200
	// only: internal/search sums tag weights in map order, so its
	// scores' last bits and the order of tied hits vary between calls.
	ref map[string][]byte
}

func newReadHot(rng *rand.Rand) *readHot {
	w := &readHot{fill: map[string][]query{}, ref: map[string][]byte{}, next: map[string]int{}}
	corpora := map[string][]*materials.Course{dataset.DefaultID: dataset.Courses()}
	ids := []string{dataset.DefaultID}
	for i := 0; i < readTenants; i++ {
		id := tenantName(rng, "r")
		c := tenantCorpus(rng)
		w.tenants = append(w.tenants, id)
		w.docs = append(w.docs, encodeDoc(c))
		corpora[id] = c
		ids = append(ids, id)
	}
	keys := map[string][]string{}
	for _, ds := range ids {
		courses := corpora[ds]
		qs := paperSet(courses)
		for _, g := range groups {
			qs = append(qs, query{"agreement", [][2]string{{"group", g}, {"threshold", "3"}}})
		}
		for _, c := range courses {
			qs = append(qs, query{"anchors", [][2]string{{"course", c.ID}}}, query{"audit", [][2]string{{"course", c.ID}}})
		}
		w.fill[ds] = qs
		for _, q := range qs {
			keys[q.analysis] = append(keys[q.analysis], q.path(ds))
		}
		prefix := "/api/v1/datasets/" + ds
		if ds == dataset.DefaultID {
			prefix = "/api/v1"
		}
		for _, c := range courses {
			keys["course"] = append(keys["course"], prefix+"/courses/"+c.ID, prefix+"/courses/"+c.ID+"/materials")
		}
		for _, p := range searchPrefixes {
			keys["search"] = append(keys["search"], prefix+"/search?limit=10&prefix="+p)
		}
	}
	for _, s := range readShares {
		for i := 0; i < s.per; i++ {
			w.deck = append(w.deck, s.route)
		}
		k := keys[s.route]
		rng.Shuffle(len(k), func(i, j int) { k[i], k[j] = k[j], k[i] })
		w.paths = append(w.paths, k...)
	}
	rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	w.keys = keys
	return w
}

// block is one pass over the route deck: exactly the route shares.
func (w *readHot) block() int { return len(w.deck) }

// grow draws reads up to n, each route cycling over its keys.
func (w *readHot) grow(n int) error {
	for i := len(w.reads); i < n; i++ {
		route := w.deck[i%len(w.deck)]
		k := w.keys[route]
		w.reads = append(w.reads, k[w.next[route]%len(k)])
		w.next[route]++
	}
	return nil
}

func (w *readHot) conns() int { return 2 }

// setup ingests the tenants, fills every analysis key with one batch
// per dataset, and captures each path's warm response.
func (w *readHot) setup(ctx context.Context, s *target) error {
	var buf bytes.Buffer
	for i, id := range w.tenants {
		if err := expect(s.do(ctx, "PUT", s.base+"/api/v1/datasets/"+id, w.docs[i], &buf)); err != nil {
			return fmt.Errorf("PUT %s: %w", id, err)
		}
	}
	batchData := map[string]json.RawMessage{}
	for _, ds := range append([]string{dataset.DefaultID}, w.tenants...) {
		qs := w.fill[ds]
		items, err := runBatch(ctx, s, ds, qs, &buf)
		if err != nil {
			return err
		}
		for i, q := range qs {
			batchData[q.path(ds)] = items[i].Data
		}
	}
	if err := s.waitDatasetsReady(ctx); err != nil {
		return err
	}
	for _, p := range w.paths {
		if err := expect(s.do(ctx, "GET", s.base+p, nil, &buf)); err != nil {
			return fmt.Errorf("GET %s: %w", p, err)
		}
		if want, ok := batchData[p]; ok {
			env, err := decodeEnvelope(buf.Bytes())
			if err != nil {
				return fmt.Errorf("GET %s: %w", p, err)
			}
			if env.Meta.Cache != "hit" {
				return fmt.Errorf("GET %s after fill: meta.cache=%q, want hit", p, env.Meta.Cache)
			}
			if !sameJSON(env.Data, want) {
				return fmt.Errorf("GET %s: data differs from the batch that filled it", p)
			}
		}
		w.ref[p] = append([]byte(nil), buf.Bytes()...)
	}
	return nil
}

// run sends reads [from, to) over two connections.
func (w *readHot) run(ctx context.Context, s *target, tr *tracer, from, to int, ph *phase) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := from
	for c := 0; c < w.conns(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var recs []time.Duration
			var fails []string
			var bytesRead int64
			attempted := 0
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= to || ctx.Err() != nil {
					break
				}
				p := w.reads[i]
				attempted++
				op := tr.op("read")
				call := op.child("http.get")
				t0 := time.Now()
				st, trace, err := s.do(ctx, "GET", s.base+p, nil, &buf)
				d := time.Since(t0)
				call.end(trace)
				op.end("")
				tr.sample(ctx, s, op, d)
				bytesRead += int64(buf.Len())
				switch {
				case err != nil:
					fails = append(fails, fmt.Sprintf("GET %s: %v", p, err))
				case st != http.StatusOK:
					fails = append(fails, fmt.Sprintf("GET %s: status %d", p, st))
				case isSearch(p), bytes.Equal(buf.Bytes(), w.ref[p]):
				default:
					fails = append(fails, fmt.Sprintf("GET %s: response differs from the warm reference (data changed or meta.cache is not hit)", p))
				}
				recs = append(recs, d)
			}
			ph.add(recs, fails, attempted, bytesRead)
		}()
	}
	wg.Wait()
}

// verify fails the run if any read of the timed phase missed the
// cache: the working set must fit.
func (w *readHot) verify(_ context.Context, ph *phase) error {
	if m := delta(ph.before, ph.after, "csm_cache_misses_total"); m != 0 {
		return fmt.Errorf("working set does not fit the cache: %v misses in the timed phase", m)
	}
	return nil
}

func isSearch(path string) bool { return strings.Contains(path, "/search?") }

func (w *readHot) corpus() []byte { return w.docs[0] }
