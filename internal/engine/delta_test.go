package engine_test

import (
	"context"
	"encoding/json"
	"net/url"
	"testing"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/materials"
	"csmaterials/internal/resilience/faultinject"
	"csmaterials/internal/serving"
)

// newDeltaExecutor wires the real analysis registry over a fresh
// dataset registry (seed corpus as "default") — the refresh tests need
// the real analyses' scopes, not fakes.
func newDeltaExecutor(t *testing.T) (*engine.Executor, *dataset.Registry) {
	t.Helper()
	reg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	datasets := dataset.NewRegistry(nil)
	exec := engine.NewExecutor(reg, engine.ExecutorOptions{
		Datasets: datasets,
		Cache:    serving.NewCache(64),
	})
	return exec, datasets
}

func mustRunOn(t *testing.T, exec *engine.Executor, name string, v url.Values) (interface{}, engine.Outcome) {
	t.Helper()
	val, out, err := exec.RunOn(context.Background(), dataset.DefaultID, name, v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return val, out
}

// cs1OnlyCourse returns a seed course that is in the cs1 group and in
// none of ds/dsalgo/pdc, so a delta touching it must leave results
// scoped to those groups held, not recomputed.
func cs1OnlyCourse(t *testing.T, snap *dataset.Snapshot) *materials.Course {
	t.Helper()
	for _, c := range snap.Repo().Courses() {
		if c.HasGroup(materials.GroupCS1) &&
			!c.HasGroup(materials.GroupDS) && !c.HasGroup(materials.GroupAlgo) &&
			!c.HasGroup(materials.GroupPDC) {
			return c
		}
	}
	t.Fatal("no cs1-only course in seed corpus")
	return nil
}

// sameTagsRetag builds the smallest possible delta: retag one material
// with its current tags. The course is touched but its tag set does
// not change, so no analysis can observe the delta.
func sameTagsRetag(c *materials.Course) []dataset.Event {
	m := c.Materials[0]
	return []dataset.Event{{
		Op: dataset.OpRetag, Course: c.ID, MaterialID: m.ID,
		Tags: append([]string(nil), m.Tags...),
	}}
}

// missingTag returns a curriculum tag some other course of snap has
// and c lacks, so retagging one of c's materials to it changes c's tag
// set.
func missingTag(t *testing.T, snap *dataset.Snapshot, c *materials.Course) string {
	t.Helper()
	have := c.TagSet()
	for _, other := range snap.Repo().Courses() {
		for _, tag := range other.SortedTags() {
			if !have[tag] {
				return tag
			}
		}
	}
	t.Fatal("no tag outside the course")
	return ""
}

// TestApplyDeltaPrecision is the acceptance gate for invalidation
// precision. A retag that keeps its course's tag set keeps every
// entry, the touched course's own anchors included; a retag that
// changes it drops exactly the entries whose scope holds the course and
// keeps every other one; a PUT of the same document drops nothing.
func TestApplyDeltaPrecision(t *testing.T) {
	exec, datasets := newDeltaExecutor(t)
	base := datasets.Default()
	touched := cs1OnlyCourse(t, base)
	var other *materials.Course
	for _, c := range base.Repo().Courses() {
		if c.ID != touched.ID {
			other = c
			break
		}
	}

	// Populate two group-scoped and two course-scoped results.
	reads := []struct {
		name   string
		values url.Values
	}{
		{"agreement", url.Values{"group": {"all"}}},     // reached by any course's tag-set change
		{"agreement", url.Values{"group": {"pdc"}}},     // unreachable: the touched course is not pdc
		{"anchors", url.Values{"course": {touched.ID}}}, // reached when the touched course's set changes
		{"anchors", url.Values{"course": {other.ID}}},   // unreachable: another course
	}
	for _, r := range reads {
		mustRunOn(t, exec, r.name, r.values)
	}

	snap, err := datasets.Apply(dataset.DefaultID, sameTagsRetag(touched))
	if err != nil {
		t.Fatal(err)
	}
	out := exec.ApplyDelta(context.Background(), dataset.DefaultID, snap)
	if out.Invalidated != 0 {
		t.Errorf("same-tag-set retag: %+v, want nothing dropped", out)
	}
	for _, r := range reads {
		if _, o := mustRunOn(t, exec, r.name, r.values); o.Cache != "hit" || o.Revision != snap.Revision() {
			t.Errorf("%s %v after a same-tag-set retag = %q@rev%d, want hit@rev%d", r.name, r.values, o.Cache, o.Revision, snap.Revision())
		}
	}

	snap, err = datasets.Apply(dataset.DefaultID, []dataset.Event{{
		Op: dataset.OpRetag, Course: touched.ID,
		MaterialID: touched.Materials[0].ID, Tags: []string{missingTag(t, snap, touched)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	out = exec.ApplyDelta(context.Background(), dataset.DefaultID, snap)
	if out.Invalidated != 2 {
		t.Errorf("invalidated = %d, want 2 (agreement|all, anchors|%s)", out.Invalidated, touched.ID)
	}

	// Kept entries serve as hits under the new revision; dropped
	// entries recompute cold.
	for i, want := range []string{"miss", "hit", "miss", "hit"} {
		r := reads[i]
		if _, o := mustRunOn(t, exec, r.name, r.values); o.Cache != want || o.Revision != snap.Revision() {
			t.Errorf("%s %v after a tag-set change = %q@rev%d, want %s@rev%d", r.name, r.values, o.Cache, o.Revision, want, snap.Revision())
		}
	}
	st := exec.Stats().Refresh[dataset.DefaultID]
	if st.Delta != 2 || st.Full != 0 || st.Invalidated != 2 {
		t.Errorf("refresh totals = (%d delta, %d full, %d invalidated), want (2, 0, 2)", st.Delta, st.Full, st.Invalidated)
	}

	// A PUT of the same document changes no answer's input: it drops
	// nothing, counts as a full refresh, and every read stays a hit.
	putSnap, err := datasets.Put(dataset.DefaultID, snap.Repo().Courses())
	if err != nil {
		t.Fatal(err)
	}
	if out := exec.ApplyDelta(context.Background(), dataset.DefaultID, putSnap); out.Invalidated != 0 {
		t.Errorf("identical PUT: %+v, want nothing dropped", out)
	}
	for _, r := range reads {
		if _, o := mustRunOn(t, exec, r.name, r.values); o.Cache != "hit" || o.Revision != putSnap.Revision() {
			t.Errorf("%s %v after an identical PUT = %q@rev%d, want hit@rev%d", r.name, r.values, o.Cache, o.Revision, putSnap.Revision())
		}
	}
	if st := exec.Stats().Refresh[dataset.DefaultID]; st.Full != 1 {
		t.Errorf("full refreshes = %d after a PUT, want 1", st.Full)
	}
}

// TestUnchangedTagSetsComputeNothing: an answer whose input cannot
// change is reused, with no compute and no NNMF iteration. It covers a
// PATCH that keeps every course's tag set, across which no types,
// agreement or cluster entry computes, and reads of the held answers
// while the fault injector holds every compute past its caller's
// deadline, which are hits that never reach the compute. Across each,
// the counters behind csm_analysis_computes_total and
// csm_refresh_iterations_total stay put, and afterwards every read is
// a hit equal to a cold executor's.
func TestUnchangedTagSetsComputeNothing(t *testing.T) {
	reg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	datasets := dataset.NewRegistry(nil)
	cache := serving.NewCache(64)
	faults := faultinject.New(1)
	exec := engine.NewExecutor(reg, engine.ExecutorOptions{
		Datasets: datasets, Cache: cache, Faults: faults,
	})
	type read struct {
		name   string
		values url.Values
	}
	var reads []read
	for _, name := range []string{"types", "agreement", "cluster"} {
		for _, g := range []string{"all", "cs1", "ds", "dsalgo", "pdc"} {
			v := url.Values{"group": {g}}
			if name == "cluster" {
				v.Set("k", "2") // the default 4 exceeds the smaller groups
			}
			reads = append(reads, read{name, v})
		}
	}
	work := func() (computes, iterations uint64) {
		st := exec.Stats()
		for _, a := range st.Analyses {
			computes += a.Computes
		}
		return computes, st.Refresh[dataset.DefaultID].ColdIterations
	}
	checkHitsEqualCold := func(phase string) {
		t.Helper()
		coldReg, err := analyses.Default()
		if err != nil {
			t.Fatal(err)
		}
		cold := engine.NewExecutor(coldReg, engine.ExecutorOptions{Datasets: datasets, Cache: serving.NewCache(64)})
		for _, r := range reads {
			got, o := mustRunOn(t, exec, r.name, r.values)
			if o.Cache != "hit" {
				t.Errorf("%s: %s %v = %q, want hit", phase, r.name, r.values, o.Cache)
			}
			want, _ := mustRunOn(t, cold, r.name, r.values)
			if mustJSON(t, got) != mustJSON(t, want) {
				t.Errorf("%s: %s %v differs from a cold executor's", phase, r.name, r.values)
			}
		}
	}
	for _, r := range reads {
		mustRunOn(t, exec, r.name, r.values)
	}

	computes, iterations := work()
	if iterations == 0 {
		t.Fatal("the cold types computes recorded no iterations")
	}
	snap, err := datasets.Apply(dataset.DefaultID, sameTagsRetag(cs1OnlyCourse(t, datasets.Default())))
	if err != nil {
		t.Fatal(err)
	}
	if out := exec.ApplyDelta(context.Background(), dataset.DefaultID, snap); out.Invalidated != 0 {
		t.Fatalf("same-tag-set PATCH: %+v, want all %d entries kept", out, len(reads))
	}
	checkHitsEqualCold("after the PATCH")
	if c, i := work(); c != computes || i != iterations {
		t.Fatalf("same-tag-set PATCH: computes %d -> %d, iterations %d -> %d; want both unchanged", computes, c, iterations, i)
	}

	// Hold every compute past its caller's deadline: a held answer is a
	// hit and never reaches the compute, so no read waits or fails.
	hold := make(chan struct{})
	faults.SetRules(faultinject.Rule{Match: "compute/", Probability: 1, Hold: hold})
	for _, r := range reads {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, o, err := exec.RunOn(ctx, dataset.DefaultID, r.name, r.values)
		cancel()
		if err != nil || o.Cache != "hit" {
			t.Fatalf("held %s %v = %+v, %v; want a hit", r.name, r.values, o, err)
		}
	}
	close(hold)
	faults.SetRules()
	if c, i := work(); c != computes || i != iterations {
		t.Fatalf("held answers: computes %d -> %d, iterations %d -> %d; want both unchanged", computes, c, iterations, i)
	}
	checkHitsEqualCold("after the held reads")
}

// TestApplyDeltaSeedsNoTypesPrior: a retag that changes a course's tag
// set drops types|all, counted once, and leaves nothing to seed its
// recompute: the next read is a miss that runs one cold compute and
// adds its NNMF iterations to the cold count.
func TestApplyDeltaSeedsNoTypesPrior(t *testing.T) {
	exec, datasets := newDeltaExecutor(t)
	base := datasets.Default()
	touched := cs1OnlyCourse(t, base)
	all := url.Values{"group": {"all"}}
	mustRunOn(t, exec, "types", all)
	coldBefore := exec.Stats().Refresh[dataset.DefaultID].ColdIterations
	snap, err := datasets.Apply(dataset.DefaultID, []dataset.Event{{
		Op: dataset.OpRetag, Course: touched.ID,
		MaterialID: touched.Materials[0].ID, Tags: []string{missingTag(t, base, touched)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	out := exec.ApplyDelta(context.Background(), dataset.DefaultID, snap)
	if out.Invalidated != 1 {
		t.Errorf("tag-set change: %+v, want types|all dropped", out)
	}
	computes := exec.Stats().Analyses["types"].Computes
	if _, o := mustRunOn(t, exec, "types", all); o.Cache != "miss" || o.Revision != snap.Revision() {
		t.Errorf("types|all after the change = %q@rev%d, want miss@rev%d", o.Cache, o.Revision, snap.Revision())
	}
	st := exec.Stats()
	if n := st.Analyses["types"].Computes - computes; n != 1 {
		t.Errorf("the recompute ran %d computes, want 1", n)
	}
	if st.Refresh[dataset.DefaultID].ColdIterations <= coldBefore {
		t.Errorf("cold iterations %d -> %d: the recompute ran no cold NNMF", coldBefore, st.Refresh[dataset.DefaultID].ColdIterations)
	}
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
