// End-to-end integration tests: drive the whole reproduction pipeline the
// way cmd/figures and cmd/workshop do — dataset synthesis, repository
// persistence, factorization, agreement, anchor recommendation, catalog
// recommendation — and assert the pieces compose.
package csmaterials_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"csmaterials/internal/agreement"
	"csmaterials/internal/anchor"
	"csmaterials/internal/audit"
	"csmaterials/internal/catalog"
	"csmaterials/internal/core"
	"csmaterials/internal/dataset"
	"csmaterials/internal/factorize"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
	"csmaterials/internal/search"
	"csmaterials/internal/simgraph"
)

// TestFullPipelineRoundTrip exports the dataset to JSON, reloads it into
// a fresh repository, and verifies the analyses produce identical results
// on the reloaded data — persistence does not lose analysis-relevant
// information.
func TestFullPipelineRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := dataset.Repository().SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	if err := reloaded.LoadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if len(reloaded.Courses()) != 20 {
		t.Fatalf("reloaded %d courses", len(reloaded.Courses()))
	}

	// Agreement results identical on original and reloaded data.
	orig, err := agreement.Analyze(dataset.CoursesByID(dataset.CS1CourseIDs()), ontology.CS2013())
	if err != nil {
		t.Fatal(err)
	}
	var reCS1 []*materials.Course
	for _, id := range dataset.CS1CourseIDs() {
		reCS1 = append(reCS1, reloaded.Course(id))
	}
	re, err := agreement.Analyze(reCS1, ontology.CS2013())
	if err != nil {
		t.Fatal(err)
	}
	if orig.NumTags() != re.NumTags() || orig.AtLeast(3) != re.AtLeast(3) {
		t.Fatal("agreement differs after JSON round trip")
	}

	// Factorization identical (same matrix, same seed).
	m1, err := factorize.Analyze(dataset.Courses(), 4, factorize.PaperOptions(), ontology.CS2013(), ontology.PDC12())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := factorize.Analyze(reloaded.Courses(), 4, factorize.PaperOptions(), ontology.CS2013(), ontology.PDC12())
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Courses {
		if m1.DominantType(i) != m2.DominantType(i) {
			t.Fatalf("course %d type differs after round trip", i)
		}
	}
}

// TestAnchorsFollowTypes ties the two halves of the paper together: the
// courses the NNMF assigns to a flavor get the recommendations §5.2 aims
// at that flavor.
func TestAnchorsFollowTypes(t *testing.T) {
	model, err := factorize.Analyze(dataset.CoursesByID(dataset.CS1CourseIDs()), 3,
		factorize.PaperOptions(), ontology.CS2013(), ontology.PDC12())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := anchor.NewRecommender(ontology.CS2013(), ontology.PDC12())
	if err != nil {
		t.Fatal(err)
	}
	// Find the imperative+representation type via its AR mass.
	arType, best := 0, -1.0
	for typ := 0; typ < 3; typ++ {
		if s := model.KAShare(typ)["AR"]; s > best {
			best, arType = s, typ
		}
	}
	// Every CS1 course dominated by that type gets the reduction-order
	// rule; courses dominated by the PL-heavy type get promises.
	plType, best := 0, -1.0
	for typ := 0; typ < 3; typ++ {
		if s := model.KAShare(typ)["PL"]; s > best {
			best, plType = s, typ
		}
	}
	for i, c := range model.Courses {
		recs := rec.Recommend(c)
		has := func(id string) bool {
			for _, r := range recs {
				if r.Rule.ID == id {
					return true
				}
			}
			return false
		}
		share := model.TypeShare(i)
		switch {
		case model.DominantType(i) == arType && share[arType] > 0.9:
			if !has("reduction-order") {
				t.Errorf("course %s strongly in the representation type but no reduction-order rule", c.ID)
			}
		case model.DominantType(i) == plType && share[plType] > 0.9:
			if !has("promise-concurrency") {
				t.Errorf("course %s strongly in the OOP type but no promise rule", c.ID)
			}
		}
	}
}

// TestSearchFindsCatalogEntriesWhenLoaded verifies the future-work flow:
// load the public catalog into the repository next to real courses and
// search across both.
func TestSearchFindsCatalogEntriesWhenLoaded(t *testing.T) {
	repo := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	for _, c := range dataset.Courses() {
		// Courses are shared instances; adding them to a second repository
		// is fine because repositories only index.
		if err := repo.AddCourses(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range catalog.AsCourses() {
		if err := repo.AddCourses(c); err != nil {
			t.Fatal(err)
		}
	}
	engine := search.NewEngine(repo)
	res := engine.Search(search.Query{
		TagPrefixes: []string{"ALGO/parallel-and-distributed-models-and-complexity/"},
		Limit:       30,
	})
	foundCatalog, foundCourse := false, false
	for _, r := range res {
		if strings.HasPrefix(r.Material.ID, "catalog/") {
			foundCatalog = true
		} else {
			foundCourse = true
		}
	}
	if !foundCatalog || !foundCourse {
		t.Fatalf("cross-repository search incomplete: catalog=%v course=%v", foundCatalog, foundCourse)
	}
}

// TestWorkshopPipelinePieces drives the workshop steps programmatically.
func TestWorkshopPipelinePieces(t *testing.T) {
	course := dataset.Repository().Course("vcu-cmsc256-duke")

	// Alignment between material kinds.
	var lectures, assessments []*materials.Material
	for _, m := range course.Materials {
		if m.Type == materials.Lecture {
			lectures = append(lectures, m)
		} else {
			assessments = append(assessments, m)
		}
	}
	al := agreement.Align(lectures, assessments)
	if al.Jaccard <= 0 || al.Jaccard >= 1 {
		t.Fatalf("alignment %v should be strictly between 0 and 1 for this dataset", al.Jaccard)
	}

	// Similarity map embeds without error and separates materials.
	g, err := simgraph.Build(course.Materials[:10], simgraph.Jaccard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Embed(1); err != nil {
		t.Fatal(err)
	}

	// Audit, readiness, catalog recommendations all fire.
	rep := audit.Audit(course, ontology.CS2013())
	if rep.TierCoverage(ontology.TierCore1) <= 0 {
		t.Fatal("zero core-1 coverage for a DS course")
	}
	if audit.AssessPDCReadiness(course).PrerequisiteScore() <= 0 {
		t.Fatal("zero PDC readiness for a DS course")
	}
	if len(catalog.Recommend(course, 5)) == 0 {
		t.Fatal("no catalog recommendations for a DS course")
	}
}

// TestFiguresMatchDirectAnalyses cross-checks the core facade against the
// underlying packages (guards against the facade drifting from the
// analyses it wraps).
func TestFiguresMatchDirectAnalyses(t *testing.T) {
	art, err := core.Figure3a()
	if err != nil {
		t.Fatal(err)
	}
	a, err := agreement.Analyze(dataset.CoursesByID(dataset.CS1CourseIDs()), ontology.CS2013(), ontology.PDC12())
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(art.Text, "\n")[0]
	if !strings.Contains(want, "246") && !strings.Contains(want, "map to") {
		t.Logf("header: %s", want)
	}
	if !strings.Contains(art.Text, "map to") {
		t.Fatal("figure 3a text malformed")
	}
	// The number in the figure equals the direct analysis.
	if !strings.Contains(art.Text, strconv.Itoa(a.NumTags())) {
		t.Fatalf("figure 3a does not report the direct tag count %d", a.NumTags())
	}
}
