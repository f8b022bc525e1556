package catalog

import (
	"strings"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

func TestEntriesValidateAndCount(t *testing.T) {
	es := Entries()
	if len(es) < 20 {
		t.Fatalf("catalog has %d entries; expected a substantial set (>= 20)", len(es))
	}
	seen := map[string]bool{}
	for _, e := range es {
		if seen[e.Material.ID] {
			t.Errorf("duplicate catalog ID %q", e.Material.ID)
		}
		seen[e.Material.ID] = true
		if len(e.Material.Tags) < 2 {
			t.Errorf("entry %q has too few tags", e.Material.ID)
		}
		if len(e.CourseLevels) == 0 {
			t.Errorf("entry %q has no course levels", e.Material.ID)
		}
		if e.Source != Nifty && e.Source != PeachyParallel && e.Source != PDCUnplugged {
			t.Errorf("entry %q has unknown source %q", e.Material.ID, e.Source)
		}
	}
}

func TestBySourceCoversAllThreeRepositories(t *testing.T) {
	for _, s := range []Source{Nifty, PeachyParallel, PDCUnplugged} {
		if len(BySource(s)) < 5 {
			t.Errorf("source %s has %d entries, want >= 5", s, len(BySource(s)))
		}
	}
}

func TestPDCSourcesCarryPDC12Content(t *testing.T) {
	pdc := ontology.PDC12()
	// Peachy Parallel and PDC Unplugged entries must teach PDC12 content;
	// Nifty entries (early CS, not PDC) must not.
	for _, e := range Entries() {
		n := 0
		for _, tag := range e.Material.Tags {
			if pdc.Lookup(tag) != nil {
				n++
			}
		}
		switch e.Source {
		case Nifty:
			if n != 0 {
				t.Errorf("Nifty entry %q carries PDC12 tags", e.Material.ID)
			}
		default:
			if n == 0 {
				t.Errorf("%s entry %q teaches no PDC12 content", e.Source, e.Material.ID)
			}
		}
	}
}

func TestEveryEntryAnchorsOnCS2013(t *testing.T) {
	cs := ontology.CS2013()
	for _, e := range Entries() {
		n := 0
		for _, tag := range e.Material.Tags {
			if cs.Lookup(tag) != nil {
				n++
			}
		}
		if n == 0 {
			t.Errorf("entry %q has no CS2013 anchor — unadoptable by an early CS course", e.Material.ID)
		}
	}
}

func TestRecommendForDSCourse(t *testing.T) {
	course := dataset.Repository().Course("uncc-2214-krs")
	recs := Recommend(course, 10)
	if len(recs) == 0 {
		t.Fatal("no recommendations for a Data Structures course")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatal("recommendations not sorted")
		}
	}
	for _, r := range recs {
		if len(r.SharedTags) == 0 {
			t.Errorf("recommendation %q shares no tags with the course", r.Entry.Material.ID)
		}
		if r.Fit <= 0 || r.Fit > 1 {
			t.Errorf("fit %v out of range", r.Fit)
		}
	}
	// A DS course covering graphs and priority queues should see the
	// task-graph activity near the top (it both fits and brings new PDC).
	found := false
	for _, r := range recs {
		if strings.HasSuffix(r.Entry.Material.ID, "task-graph-blocks") {
			found = true
			if r.NewPDC == 0 {
				t.Error("task-graph activity should introduce new PDC12 content")
			}
		}
	}
	if !found {
		t.Error("task-graph-blocks not recommended for a graph-covering DS course")
	}
}

func TestRecommendPrefersNewPDCContent(t *testing.T) {
	// For a PDC course that already covers the PDC12 entries, NewPDC
	// drops and with it the score relative to an early course.
	early := dataset.Repository().Course("ccc-csci40-kerney")
	pdcCourse := dataset.Repository().Course("uncc-3145-saule")
	// NewPDC for the reduction activity must be smaller for the PDC
	// course (it already covers reduction-as-a-parallel-pattern).
	var earlyNew, pdcNew = -1, -1
	for _, r := range Recommend(early, 0) {
		if strings.HasSuffix(r.Entry.Material.ID, "reduction-tree-humans") {
			earlyNew = r.NewPDC
		}
	}
	for _, r := range Recommend(pdcCourse, 0) {
		if strings.HasSuffix(r.Entry.Material.ID, "reduction-tree-humans") {
			pdcNew = r.NewPDC
		}
	}
	if earlyNew <= 0 {
		t.Fatalf("reduction activity not recommended to the imperative CS1 (NewPDC=%d)", earlyNew)
	}
	if pdcNew >= earlyNew && pdcNew != -1 {
		t.Errorf("PDC course NewPDC (%d) should be below the CS1's (%d)", pdcNew, earlyNew)
	}
}

func TestRecommendLimit(t *testing.T) {
	course := dataset.Repository().Course("uncc-2214-krs")
	if got := Recommend(course, 3); len(got) > 3 {
		t.Fatalf("limit ignored: %d", len(got))
	}
}

func TestSimilarEntries(t *testing.T) {
	// The dataset's own Game-of-Life-ish material: use a synthetic probe
	// with the same tags as the Nifty entry.
	probe := &materials.Material{
		ID: "probe", Title: "p", Type: materials.Assignment,
		Tags: []string{
			"SDF/fundamental-data-structures/arrays",
			"SDF/fundamental-programming-concepts/iterative-control-structures",
		},
	}
	sims := SimilarEntries(probe, 5)
	if len(sims) == 0 {
		t.Fatal("no similar entries")
	}
	if !strings.Contains(sims[0].Entry.Material.ID, "game-of-life") &&
		!strings.Contains(sims[0].Entry.Material.ID, "mandelbrot") {
		t.Errorf("unexpected top match %q", sims[0].Entry.Material.ID)
	}
	// Self-exclusion: searching from a catalog entry never returns itself.
	first := Entries()[0]
	for _, s := range SimilarEntries(first.Material, 0) {
		if s.Entry.Material.ID == first.Material.ID {
			t.Fatal("SimilarEntries returned the query material")
		}
	}
}

func TestAsCoursesLoadsIntoRepository(t *testing.T) {
	repo := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	for _, c := range AsCourses() {
		if err := repo.AddCourses(c); err != nil {
			t.Fatalf("catalog pseudo-course rejected: %v", err)
		}
	}
	if len(repo.Courses()) != 3 {
		t.Fatalf("expected 3 pseudo-courses, got %d", len(repo.Courses()))
	}
	if repo.NumMaterials() != len(Entries()) {
		t.Fatalf("repository has %d materials, want %d", repo.NumMaterials(), len(Entries()))
	}
}
