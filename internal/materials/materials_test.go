package materials

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"csmaterials/internal/ontology"
)

// tag IDs known to exist in CS2013, used throughout the tests.
const (
	tagRecursion = "SDF/fundamental-programming-concepts/the-concept-of-recursion"
	tagBigO      = "AL/basic-analysis/big-o-notation-use"
	tagVars      = "SDF/fundamental-programming-concepts/variables-and-primitive-data-types"
)

func testCourse(id string) *Course {
	return &Course{
		ID:    id,
		Name:  "Test Course " + id,
		Group: GroupCS1,
		Materials: []*Material{
			{ID: id + "-m1", Title: "Intro lecture", Type: Lecture, Tags: []string{tagVars, tagRecursion}},
			{ID: id + "-m2", Title: "Big-O homework", Type: Assignment, Tags: []string{tagBigO, tagRecursion}},
		},
	}
}

func newTestRepo(t *testing.T) *Repository {
	t.Helper()
	return NewRepository(ontology.CS2013(), ontology.PDC12())
}

func TestMaterialClone(t *testing.T) {
	m := &Material{ID: "x", Title: "T", Type: Lab, Tags: []string{"a"}, Datasets: []string{"d"}}
	c := m.Clone()
	c.Tags[0] = "b"
	c.Datasets[0] = "e"
	if m.Tags[0] != "a" || m.Datasets[0] != "d" {
		t.Fatal("Clone shares slices")
	}
}

func TestMaterialTagSet(t *testing.T) {
	m := &Material{Tags: []string{"a", "b", "a"}}
	s := m.TagSet()
	if len(s) != 2 || !s["a"] || !s["b"] {
		t.Fatalf("TagSet = %v", s)
	}
}

func TestCourseTagSetUnion(t *testing.T) {
	c := testCourse("c1")
	set := c.TagSet()
	if len(set) != 3 {
		t.Fatalf("TagSet size = %d, want 3", len(set))
	}
	for _, want := range []string{tagVars, tagRecursion, tagBigO} {
		if !set[want] {
			t.Errorf("TagSet missing %q", want)
		}
	}
}

func TestCourseSortedTags(t *testing.T) {
	c := testCourse("c1")
	tags := c.SortedTags()
	if len(tags) != 3 {
		t.Fatalf("SortedTags size = %d", len(tags))
	}
	for i := 1; i < len(tags); i++ {
		if tags[i] <= tags[i-1] {
			t.Fatal("SortedTags not sorted")
		}
	}
}

func TestCourseTagCounts(t *testing.T) {
	c := testCourse("c1")
	counts := c.TagCounts()
	if counts[tagRecursion] != 2 {
		t.Fatalf("recursion count = %d, want 2", counts[tagRecursion])
	}
	if counts[tagVars] != 1 || counts[tagBigO] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestCourseHasGroup(t *testing.T) {
	c := &Course{ID: "x", Name: "X", Group: GroupCS1, SecondaryGroup: GroupDS}
	if !c.HasGroup(GroupCS1) || !c.HasGroup(GroupDS) {
		t.Fatal("HasGroup failed for primary/secondary")
	}
	if c.HasGroup(GroupPDC) {
		t.Fatal("HasGroup matched wrong group")
	}
}

func TestCourseValidate(t *testing.T) {
	good := testCourse("ok")
	if err := good.Validate(); err != nil {
		t.Fatalf("valid course rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Course)
	}{
		{"empty course ID", func(c *Course) { c.ID = "" }},
		{"empty name", func(c *Course) { c.Name = "" }},
		{"empty material ID", func(c *Course) { c.Materials[0].ID = "" }},
		{"duplicate material ID", func(c *Course) { c.Materials[1].ID = c.Materials[0].ID }},
		{"bad type", func(c *Course) { c.Materials[0].Type = "banana" }},
		{"empty tag", func(c *Course) { c.Materials[0].Tags = []string{"  "} }},
	}
	for _, tc := range cases {
		c := testCourse("bad")
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid course", tc.name)
		}
	}
}

func TestRepositoryAddAndLookup(t *testing.T) {
	r := newTestRepo(t)
	c := testCourse("c1")
	if err := r.AddCourses(c); err != nil {
		t.Fatal(err)
	}
	if r.Course("c1") != c {
		t.Fatal("Course lookup failed")
	}
	if r.Material("c1-m1") == nil {
		t.Fatal("Material lookup failed")
	}
	if r.NumMaterials() != 2 {
		t.Fatalf("NumMaterials = %d", r.NumMaterials())
	}
}

func TestRepositoryRejectsUnknownTag(t *testing.T) {
	r := newTestRepo(t)
	c := testCourse("c1")
	c.Materials[0].Tags = append(c.Materials[0].Tags, "NOPE/not-a-tag")
	if err := r.AddCourses(c); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

func TestRepositoryAcceptsPDCTags(t *testing.T) {
	r := newTestRepo(t)
	c := testCourse("c1")
	c.Materials[0].Tags = append(c.Materials[0].Tags, "ALGO/algorithmic-paradigms/reduction-as-a-parallel-pattern")
	if err := r.AddCourses(c); err != nil {
		t.Fatalf("PDC tag rejected: %v", err)
	}
}

func TestRepositoryRejectsDuplicates(t *testing.T) {
	r := newTestRepo(t)
	if err := r.AddCourses(testCourse("c1")); err != nil {
		t.Fatal(err)
	}
	if err := r.AddCourses(testCourse("c1")); err == nil {
		t.Fatal("duplicate course accepted")
	}
	// Same material ID in a different course.
	c2 := testCourse("c2")
	c2.Materials[0].ID = "c1-m1"
	if err := r.AddCourses(c2); err == nil {
		t.Fatal("cross-course duplicate material accepted")
	}
}

func TestRepositoryCoursesOrder(t *testing.T) {
	r := newTestRepo(t)
	for _, id := range []string{"b", "a", "c"} {
		if err := r.AddCourses(testCourse(id)); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Courses()
	if got[0].ID != "b" || got[1].ID != "a" || got[2].ID != "c" {
		t.Fatal("Courses() must preserve insertion order")
	}
}

func TestRepositoryCoursesInGroup(t *testing.T) {
	r := newTestRepo(t)
	c1 := testCourse("c1")
	c2 := testCourse("c2")
	c2.Group = GroupDS
	c3 := testCourse("c3")
	c3.Group = GroupCS1
	c3.SecondaryGroup = GroupDS
	for _, c := range []*Course{c1, c2, c3} {
		if err := r.AddCourses(c); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]string{
		"all": {"c1", "c2", "c3"}, "cs1": {"c1", "c3"}, "ds": {"c2", "c3"},
		"dsalgo": {"c2", "c3"}, "pdc": nil,
	}
	for _, g := range Groups {
		var got []string
		for _, c := range r.Restrict(Scope{Group: g}).Courses() {
			got = append(got, c.ID)
		}
		if !slices.Equal(got, want[g]) {
			t.Errorf("Restrict(%s) holds %v, want %v", g, got, want[g])
		}
	}
}

func TestMaterialsSorted(t *testing.T) {
	r := newTestRepo(t)
	if err := r.AddCourses(testCourse("z")); err != nil {
		t.Fatal(err)
	}
	if err := r.AddCourses(testCourse("a")); err != nil {
		t.Fatal(err)
	}
	ms := r.Materials()
	for i := 1; i < len(ms); i++ {
		if ms[i].ID <= ms[i-1].ID {
			t.Fatal("Materials() not sorted by ID")
		}
	}
}

func TestCourseMatrix(t *testing.T) {
	c1 := testCourse("c1") // tags: vars, recursion, bigO
	c2 := &Course{
		ID: "c2", Name: "C2", Group: GroupDS,
		Materials: []*Material{
			{ID: "c2-m1", Title: "L", Type: Lecture, Tags: []string{tagBigO}},
		},
	}
	csr, cols := CourseMatrix([]*Course{c1, c2})
	a := csr.ToDense()
	if a.Rows() != 2 || a.Cols() != 3 {
		t.Fatalf("matrix dims %dx%d, want 2x3", a.Rows(), a.Cols())
	}
	if len(cols) != 3 {
		t.Fatalf("cols = %v", cols)
	}
	// Columns sorted; find bigO column.
	bigOCol := -1
	for j, c := range cols {
		if c == tagBigO {
			bigOCol = j
		}
	}
	if bigOCol < 0 {
		t.Fatal("bigO column missing")
	}
	if a.At(0, bigOCol) != 1 || a.At(1, bigOCol) != 1 { // lint:exact — incidence entries are exact 0/1
		t.Fatal("bigO column should be 1 for both courses")
	}
	// c2 has only one tag: its row sums to 1.
	if got := a.RowSums()[1]; got != 1 { // lint:exact — sum of exact 0/1 entries
		t.Fatalf("row 2 sum = %v, want 1", got)
	}
	// Entries are 0-1.
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if v := a.At(i, j); v != 0 && v != 1 { // lint:exact — incidence entries are exact 0/1
				t.Fatalf("non-binary entry %v", v)
			}
		}
	}
}

func TestCourseMatrixEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CourseMatrix(nil)
}

func TestJSONRoundTrip(t *testing.T) {
	r := newTestRepo(t)
	c := testCourse("c1")
	c.Institution = "UNC Charlotte"
	c.Instructor = "Saule"
	c.Materials[0].Language = "C++"
	c.Materials[0].Datasets = []string{"earthquakes"}
	if err := r.AddCourses(c); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r2 := newTestRepo(t)
	if err := r2.LoadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := r2.Course("c1")
	if got == nil {
		t.Fatal("course lost in round trip")
	}
	if got.Institution != "UNC Charlotte" || got.Instructor != "Saule" {
		t.Fatalf("metadata lost: %+v", got)
	}
	if got.Materials[0].Language != "C++" || got.Materials[0].Datasets[0] != "earthquakes" {
		t.Fatal("material metadata lost")
	}
	if len(got.TagSet()) != len(c.TagSet()) {
		t.Fatal("tags lost in round trip")
	}
}

func TestLoadJSONRejectsBadDocument(t *testing.T) {
	r := newTestRepo(t)
	if err := r.LoadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// Valid JSON, invalid course (unknown tag).
	bad := `{"courses":[{"id":"x","name":"X","group":"CS1","materials":[{"id":"m","title":"t","type":"lecture","tags":["NOPE"]}]}]}`
	if err := r.LoadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("course with unknown tag accepted via JSON")
	}
}

func TestNewRepositoryNeedsGuideline(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRepository()
}
