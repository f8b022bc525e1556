package main

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"csmaterials/internal/server"
)

// readKBPerOp sets read-hot up for seed against an in-process server
// and returns the mean response size of its timed reads.
func readKBPerOp(t *testing.T, seed int64) float64 {
	t.Helper()
	srv, err := server.NewWithOptions(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.DrainBackground()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	w := newReadHot(rand.New(rand.NewSource(seed)))
	if err := w.grow(100 * w.block()); err != nil {
		t.Fatal(err)
	}
	tg := &target{base: ts.URL, http: ts.Client()}
	ctx := context.Background()
	if err := tg.waitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(ctx, tg); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range w.reads {
		total += len(w.ref[p])
	}
	return float64(total) / 1024 / float64(len(w.reads))
}

// Two seeds pick different tenants, corpora and keys, yet the read mix
// moves the same bytes per read to within 2%.
func TestReadBytesStableAcrossSeeds(t *testing.T) {
	a, b := readKBPerOp(t, 1), readKBPerOp(t, 2)
	t.Logf("response KB per read: seed 1 %.3f, seed 2 %.3f", a, b)
	if math.Abs(a-b) > 0.02*math.Min(a, b) {
		t.Fatalf("response KB per read: seed 1 %.3f, seed 2 %.3f, more than 2%% apart", a, b)
	}
}

// Every seed edits each course of each tenant equally often, and every
// edit is of the workload's class: the generator checks each edit's
// delta against the class and fails otherwise.
func TestEditMixStableAcrossSeeds(t *testing.T) {
	for _, cls := range []editClass{keepTags, changeTags} {
		var counts []map[string]int
		for _, seed := range []int64{1, 2} {
			w, err := newEditRefresh(rand.New(rand.NewSource(seed)), cls)
			if err == nil {
				err = w.grow(5 * w.block())
			}
			if err != nil {
				t.Fatalf("class %s seed %d: %v", cls, seed, err)
			}
			perCourse := map[string]int{}
			for i, ev := range w.events {
				// Tenant names differ by seed; their position does not.
				slot := 0
				if w.tenant[i] == w.tenants[1] {
					slot = 1
				}
				perCourse[string(rune('0'+slot))+"/"+ev.Course]++
			}
			counts = append(counts, perCourse)
		}
		if len(counts[0]) != len(counts[1]) {
			t.Fatalf("class %s: seeds edit %d and %d distinct courses", cls, len(counts[0]), len(counts[1]))
		}
		for k, n := range counts[0] {
			if counts[1][k] != n {
				t.Fatalf("class %s: course %s edited %d times with seed 1, %d with seed 2", cls, k, n, counts[1][k])
			}
		}
	}
}
