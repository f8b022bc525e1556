package search

import (
	"math"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

const (
	tagRecursion = "SDF/fundamental-programming-concepts/the-concept-of-recursion"
	tagBigO      = "AL/basic-analysis/big-o-notation-use"
	tagVars      = "SDF/fundamental-programming-concepts/variables-and-primitive-data-types"
)

func testRepo(t *testing.T) *materials.Repository {
	t.Helper()
	repo := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	course := &materials.Course{
		ID: "c", Name: "C", Group: materials.GroupCS1,
		Materials: []*materials.Material{
			{ID: "m1", Title: "Recursion slides", Type: materials.Lecture, Author: "saule",
				Language: "C++", CourseLevel: "CS1", Tags: []string{tagRecursion}},
			{ID: "m2", Title: "Big-O homework", Type: materials.Assignment, Author: "krs",
				Language: "Java", CourseLevel: "CS2", Datasets: []string{"earthquakes"},
				Tags: []string{tagBigO, tagRecursion}},
			{ID: "m3", Title: "Variables lab", Type: materials.Lab, Author: "saule",
				Language: "Python", CourseLevel: "CS1", Tags: []string{tagVars}},
		},
	}
	if err := repo.AddCourses(course); err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestSearchByTag(t *testing.T) {
	e := NewEngine(testRepo(t))
	res := e.Search(Query{Tags: []string{tagRecursion}})
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	ids := map[string]bool{res[0].Material.ID: true, res[1].Material.ID: true}
	if !ids["m1"] || !ids["m2"] {
		t.Fatalf("wrong results: %v", ids)
	}
	for _, r := range res {
		if len(r.MatchedTags) != 1 || r.MatchedTags[0] != tagRecursion {
			t.Fatalf("MatchedTags = %v", r.MatchedTags)
		}
		if r.Score <= 0 {
			t.Fatal("non-positive score")
		}
	}
}

func TestSearchScoringPrefersMoreMatches(t *testing.T) {
	e := NewEngine(testRepo(t))
	res := e.Search(Query{Tags: []string{tagRecursion, tagBigO}})
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Material.ID != "m2" {
		t.Fatalf("best result = %s, want m2 (matches both tags)", res[0].Material.ID)
	}
	if res[0].Score <= res[1].Score {
		t.Fatal("two-tag match must outscore one-tag match")
	}
}

func TestIDFRareTagsWeighMore(t *testing.T) {
	e := NewEngine(testRepo(t))
	// tagBigO appears in 1 material, tagRecursion in 2: bigO is rarer.
	if e.IDF(tagBigO) <= e.IDF(tagRecursion) {
		t.Fatalf("IDF(bigO)=%v should exceed IDF(recursion)=%v", e.IDF(tagBigO), e.IDF(tagRecursion))
	}
	if e.IDF("never-seen") <= e.IDF(tagBigO) {
		t.Fatal("unknown tag should have maximal IDF")
	}
}

func TestSearchByPrefix(t *testing.T) {
	e := NewEngine(testRepo(t))
	res := e.Search(Query{TagPrefixes: []string{"SDF/fundamental-programming-concepts/"}})
	if len(res) != 3 {
		t.Fatalf("prefix search = %d results, want 3", len(res))
	}
}

func TestSearchFacets(t *testing.T) {
	e := NewEngine(testRepo(t))
	if res := e.Search(Query{Tags: []string{tagRecursion}, Author: "saule"}); len(res) != 1 || res[0].Material.ID != "m1" {
		t.Fatalf("author facet = %v", res)
	}
	if res := e.Search(Query{Tags: []string{tagRecursion}, Language: "java"}); len(res) != 1 || res[0].Material.ID != "m2" {
		t.Fatalf("language facet (case-insensitive) = %v", res)
	}
	if res := e.Search(Query{Tags: []string{tagRecursion}, CourseLevel: "CS2"}); len(res) != 1 {
		t.Fatalf("level facet = %v", res)
	}
	if res := e.Search(Query{Tags: []string{tagRecursion}, Dataset: "earthquakes"}); len(res) != 1 || res[0].Material.ID != "m2" {
		t.Fatalf("dataset facet = %v", res)
	}
	if res := e.Search(Query{Tags: []string{tagRecursion}, Dataset: "nope"}); len(res) != 0 {
		t.Fatalf("missing dataset matched: %v", res)
	}
}

func TestFacetOnlyBrowse(t *testing.T) {
	e := NewEngine(testRepo(t))
	res := e.Search(Query{Author: "saule"})
	if len(res) != 2 {
		t.Fatalf("facet-only browse = %d results, want 2", len(res))
	}
}

func TestSearchText(t *testing.T) {
	e := NewEngine(testRepo(t))
	res := e.Search(Query{Text: "recursion"})
	if len(res) != 1 || res[0].Material.ID != "m1" {
		t.Fatalf("text search = %v", res)
	}
	// Text plus tags unions the criteria.
	res = e.Search(Query{Text: "recursion", Tags: []string{tagBigO}})
	if len(res) != 2 {
		t.Fatalf("text+tag = %d results", len(res))
	}
}

func TestSearchLimitAndDeterminism(t *testing.T) {
	e := NewEngine(testRepo(t))
	res := e.Search(Query{Tags: []string{tagRecursion}, Limit: 1})
	if len(res) != 1 {
		t.Fatalf("limit ignored: %d", len(res))
	}
	a := e.Search(Query{TagPrefixes: []string{"SDF/"}})
	b := e.Search(Query{TagPrefixes: []string{"SDF/"}})
	for i := range a {
		if a[i].Material.ID != b[i].Material.ID {
			t.Fatal("search not deterministic")
		}
	}
}

func TestSimilarTo(t *testing.T) {
	e := NewEngine(testRepo(t))
	res := e.SimilarTo("m1", 5)
	if len(res) != 1 || res[0].Material.ID != "m2" {
		t.Fatalf("SimilarTo(m1) = %v", res)
	}
	if e.SimilarTo("ghost", 5) != nil {
		t.Fatal("SimilarTo of unknown material should be nil")
	}
}

func TestSearchOnFullDataset(t *testing.T) {
	e := NewEngine(dataset.Repository())
	// Searching for parallel-decomposition content must surface PDC
	// course materials.
	res := e.Search(Query{TagPrefixes: []string{"PD/parallel-decomposition/"}, Limit: 10})
	if len(res) == 0 {
		t.Fatal("no results for PD content")
	}
	for _, r := range res {
		if r.Score <= 0 {
			t.Fatal("zero-score result returned")
		}
	}
	// All results come from PDC courses (only they carry PD tags).
	repo := dataset.Repository()
	pdcAuthors := map[string]bool{}
	for _, id := range dataset.PDCCourseIDs() {
		pdcAuthors[repo.Course(id).Instructor] = true
	}
	for _, r := range res {
		if !pdcAuthors[r.Material.Author] {
			t.Errorf("result %s authored by %s, not a PDC instructor", r.Material.ID, r.Material.Author)
		}
	}
}

// TestSearchScoresRepeatBitForBit: a score sums the IDF of several
// matched tags, so it must not depend on map iteration order — every
// call returns the same score bits in the same order.
func TestSearchScoresRepeatBitForBit(t *testing.T) {
	e := NewEngine(dataset.Repository())
	q := Query{TagPrefixes: []string{"AL/", "SDF/", "PD/", "PDC12/"}}
	want := e.Search(q)
	if len(want) < 10 {
		t.Fatalf("only %d hits; the query should match many multi-tag materials", len(want))
	}
	for run := 0; run < 100; run++ {
		got := e.Search(q)
		if len(got) != len(want) {
			t.Fatalf("run %d: %d hits, want %d", run, len(got), len(want))
		}
		for i, r := range got {
			if r.Material.ID != want[i].Material.ID || math.Float64bits(r.Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("run %d, hit %d: %s %v, first call gave %s %v",
					run, i, r.Material.ID, r.Score, want[i].Material.ID, want[i].Score)
			}
		}
	}
}
