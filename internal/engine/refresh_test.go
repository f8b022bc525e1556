package engine_test

import (
	"context"
	"net/url"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/materials"
	"csmaterials/internal/serving"
)

// TestLateRefreshServesNoStaleAnswer: refreshes may run in any order,
// and none of them serves an answer the current corpus would not
// compute. Revision 2 adds a tag a cs1-only course lacks, revision 3
// keeps every tag set, and their refreshes run 3 then 2. After each,
// agreement?group=cs1 equals a cold executor over revision 3, and
// after the late one it is still a hit.
func TestLateRefreshServesNoStaleAnswer(t *testing.T) {
	exec, datasets := newDeltaExecutor(t)
	base := datasets.Default()
	c := cs1OnlyCourse(t, base)
	read := url.Values{"group": {"cs1"}}
	mustRunOn(t, exec, "agreement", read)

	m := c.Materials[0]
	rev2, err := datasets.Apply(dataset.DefaultID, []dataset.Event{{
		Op: dataset.OpRetag, Course: c.ID, MaterialID: m.ID,
		Tags: append(append([]string(nil), m.Tags...), missingTag(t, base, c)),
	}})
	if err != nil {
		t.Fatal(err)
	}
	rev3, err := datasets.Apply(dataset.DefaultID, sameTagsRetag(rev2.Repo().Course(c.ID)))
	if err != nil {
		t.Fatal(err)
	}
	coldReg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	cold := engine.NewExecutor(coldReg, engine.ExecutorOptions{Datasets: datasets, Cache: serving.NewCache(64)})
	want, _ := mustRunOn(t, cold, "agreement", read)

	for i, snap := range []*dataset.Snapshot{rev3, rev2} {
		out := exec.ApplyDelta(context.Background(), dataset.DefaultID, snap)
		got, o := mustRunOn(t, exec, "agreement", read)
		if mustJSON(t, got) != mustJSON(t, want) {
			t.Errorf("after the refresh for revision %d (%+v): agreement?group=cs1 = %q, %s; a cold executor over revision 3 gives %s",
				snap.Revision(), out, o.Cache, mustJSON(t, got), mustJSON(t, want))
		}
		if i == 1 && o.Cache != "hit" {
			t.Errorf("after the late refresh for revision 2 (%+v): agreement?group=cs1 = %q, want hit", out, o.Cache)
		}
	}
}

// putFixture holds an executor over the small corpus, ingested as the
// oracle dataset, with the oracle grid read once.
type putFixture struct {
	exec     *engine.Executor
	datasets *dataset.Registry
	snap     *dataset.Snapshot
	// answered lists the grid reads that answered rather than failed:
	// errors are never held.
	answered []gridRead
}

func newPutFixture(t *testing.T) *putFixture {
	t.Helper()
	reg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	courses := smallCorpus(t)
	datasets := dataset.NewRegistry(nil)
	snap, err := datasets.Put(oracleDataset, courses)
	if err != nil {
		t.Fatal(err)
	}
	f := &putFixture{
		exec:     engine.NewExecutor(reg, engine.ExecutorOptions{Datasets: datasets, Cache: serving.NewCache(1024)}),
		datasets: datasets,
		snap:     snap,
	}
	ids := make([]string, 0, len(courses))
	for _, c := range courses {
		ids = append(ids, c.ID)
	}
	for _, r := range oracleGrid(t, reg, ids) {
		if _, _, err := f.exec.AnswerOn(context.Background(), oracleDataset, r.name, r.values); err == nil {
			f.answered = append(f.answered, r)
		}
	}
	return f
}

// put ingests doc as the oracle dataset's next revision and refreshes.
func (f *putFixture) put(t *testing.T, doc []*materials.Course) engine.DeltaOutcome {
	t.Helper()
	snap, err := f.datasets.Put(oracleDataset, doc)
	if err != nil {
		t.Fatal(err)
	}
	f.snap = snap
	return f.exec.ApplyDelta(context.Background(), oracleDataset, snap)
}

// computes sums the executor's compute counters.
func (f *putFixture) computes() uint64 {
	var n uint64
	for _, a := range f.exec.Stats().Analyses {
		n += a.Computes
	}
	return n
}

// TestPutIdenticalDocumentKeepsEveryAnswer: a PUT of the document the
// dataset already holds changes no answer's input, so every grid read
// that answered before it is a hit after it, and none computes.
func TestPutIdenticalDocumentKeepsEveryAnswer(t *testing.T) {
	f := newPutFixture(t)
	before := f.computes()
	out := f.put(t, f.snap.Repo().Courses())
	for _, r := range f.answered {
		if _, hit := readAnswer(f.exec, r, true); !hit {
			t.Errorf("%s after an identical PUT (%+v): a miss, want a hit", r, out)
		}
	}
	if after := f.computes(); after != before {
		t.Errorf("an identical PUT cost %d computes, want 0", after-before)
	}
}

// TestPutChangingOneCourseKeepsOtherScopes: a PUT that changes one
// cs1-only course's tag set leaves every answer whose scope lacks that
// course a hit, and every answer whose scope holds it a miss; each
// read equals a cold executor's.
func TestPutChangingOneCourseKeepsOtherScopes(t *testing.T) {
	f := newPutFixture(t)
	doc := f.snap.Repo().Courses()
	var changed *materials.Course
	for i, c := range doc {
		if c.HasGroup(materials.GroupCS1) && !c.HasGroup(materials.GroupDS) &&
			!c.HasGroup(materials.GroupAlgo) && !c.HasGroup(materials.GroupPDC) {
			changed = c.Clone()
			m := changed.Materials[0].Clone()
			m.Tags = append(m.Tags, missingTag(t, f.snap, c))
			changed.Materials[0] = m
			doc[i] = changed
			break
		}
	}
	if changed == nil {
		t.Fatal("the small corpus has no cs1-only course")
	}
	out := f.put(t, doc)

	// holds reports whether r's scope holds the changed course: its own
	// reads, and the groups all and cs1. Figures read no course.
	holds := func(r gridRead) bool {
		if id := r.values.Get("course"); id != "" {
			return id == changed.ID
		}
		g := r.values.Get("group")
		return g == "all" || g == "cs1"
	}
	coldReg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	cold := engine.NewExecutor(coldReg, engine.ExecutorOptions{Datasets: f.datasets, Cache: serving.NewCache(1024)})
	for _, r := range f.answered {
		got, hit := readAnswer(f.exec, r, true)
		if want := !holds(r); hit != want {
			t.Errorf("%s after a PUT changing %s (%+v): hit = %v, want %v", r, changed.ID, out, hit, want)
		}
		if want, _ := readAnswer(cold, r, false); got != want {
			t.Errorf("%s after a PUT changing %s:\n got  %.300s\n want %.300s", r, changed.ID, got, want)
		}
	}
}
