package materials_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/materials/materialstest"
	"csmaterials/internal/matrix"
	"csmaterials/internal/ontology"
)

// denseCourseMatrix is the course-matrix route Group.Matrix replaced,
// kept as its oracle: a dense 0-1 matrix over each course's TagSet,
// one column per tag in the union, sorted. A dense matrix cannot have
// no columns, so courses without tags panic here; Group.Matrix gives
// them a matrix with no columns.
func denseCourseMatrix(courses []*materials.Course) (*matrix.Dense, []string) {
	universe := map[string]bool{}
	sets := make([]map[string]bool, len(courses))
	for i, c := range courses {
		sets[i] = c.TagSet()
		for t := range sets[i] {
			universe[t] = true
		}
	}
	cols := make([]string, 0, len(universe))
	for t := range universe {
		cols = append(cols, t)
	}
	sort.Strings(cols)
	colIdx := make(map[string]int, len(cols))
	for j, t := range cols {
		colIdx[t] = j
	}
	a := matrix.New(len(courses), len(cols))
	for i := range courses {
		for t := range sets[i] {
			a.Set(i, colIdx[t], 1)
		}
	}
	return a, cols
}

// checkMatrix holds a built course matrix and its column tags to the
// dense route compressed with FromDense, array for array.
func checkMatrix(t *testing.T, label string, courses []*materials.Course, got *matrix.CSR, gotTags []string) {
	t.Helper()
	empty := true
	for _, c := range courses {
		empty = empty && len(c.TagSet()) == 0
	}
	if empty {
		rows, cols := got.Dims()
		p, i, v := got.Arrays()
		if rows != len(courses) || cols != 0 || len(gotTags) != 0 || len(i)+len(v) != 0 || slices.Max(p) != 0 {
			t.Fatalf("%s: courses without tags give a %dx%d matrix, tags %v, arrays %v %v %v", label, rows, cols, gotTags, p, i, v)
		}
		return
	}
	dense, wantTags := denseCourseMatrix(courses)
	want := matrix.FromDense(dense)
	if !slices.Equal(gotTags, wantTags) {
		t.Fatalf("%s: column tags %v, want %v", label, gotTags, wantTags)
	}
	gr, gc := got.Dims()
	wr, wc := want.Dims()
	if gr != wr || gc != wc {
		t.Fatalf("%s: %dx%d matrix, want %dx%d", label, gr, gc, wr, wc)
	}
	gp, gi, gv := got.Arrays()
	wp, wi, wv := want.Arrays()
	if !slices.Equal(gp, wp) || !slices.Equal(gi, wi) || !slices.Equal(gv, wv) {
		t.Fatalf("%s: CSR arrays\n%v %v %v\nwant\n%v %v %v", label, gp, gi, gv, wp, wi, wv)
	}
}

// checkRows holds each course's row to its sorted tag set.
func checkRows(t *testing.T, label string, g *materials.Group) {
	t.Helper()
	for i, c := range g.Courses {
		got := make([]string, len(g.Rows[i]))
		for k, r := range g.Rows[i] {
			got[k] = g.Vocab.Tag(r)
		}
		if want := c.SortedTags(); !slices.Equal(got, want) {
			t.Fatalf("%s: course %q has row tags %v, want %v", label, c.ID, got, want)
		}
	}
}

// TestGroupMatrixMatchesDenseRoute holds the interned course matrix,
// from a repository's rows and from an ad-hoc group, to the dense
// route on every group of the seed corpus and on seeded random
// corpora.
func TestGroupMatrixMatchesDenseRoute(t *testing.T) {
	repo := dataset.Repository()
	for _, sg := range materialstest.SeedGroups() {
		g := repo.Group(sg.IDs)
		if len(g.Courses) != len(sg.IDs) {
			t.Fatalf("group %s: %d of %d courses", sg.Name, len(g.Courses), len(sg.IDs))
		}
		checkRows(t, sg.Name, g)
		a, tags := g.Matrix()
		checkMatrix(t, sg.Name, g.Courses, a, tags)
		a, tags = materials.CourseMatrix(g.Courses)
		checkMatrix(t, sg.Name+" ad hoc", g.Courses, a, tags)
	}
	for seed := int64(1); seed <= 40; seed++ {
		courses := materialstest.RandomCourses(seed, 1+int(seed%7))
		label := fmt.Sprintf("seed %d", seed)
		r, err := materialstest.Repository(courses)
		if err != nil {
			t.Fatal(err)
		}
		g := r.Group(materialstest.IDs(courses))
		checkRows(t, label, g)
		a, tags := g.Matrix()
		checkMatrix(t, label, courses, a, tags)
		ad := materials.NewGroup(courses)
		checkRows(t, label+" ad hoc", ad)
		a, tags = ad.Matrix()
		checkMatrix(t, label+" ad hoc", courses, a, tags)
	}
}

// TestRepositoryGroupSkipsUnknownIDs: Group keeps the given order and
// drops IDs the repository does not hold.
func TestRepositoryGroupSkipsUnknownIDs(t *testing.T) {
	repo := dataset.Repository()
	ids := dataset.AllCourseIDs()
	g := repo.Group([]string{ids[3], "no-such-course", ids[1]})
	if len(g.Courses) != 2 || g.Courses[0].ID != ids[3] || g.Courses[1].ID != ids[1] {
		t.Fatalf("Group returned %v", materialstest.IDs(g.Courses))
	}
	if !reflect.DeepEqual(g.Rows, [][]int32{repo.TagRow(ids[3]), repo.TagRow(ids[1])}) {
		t.Fatal("Group rows are not the stored tag rows")
	}
	if repo.TagRow("no-such-course") != nil {
		t.Fatal("TagRow of an unknown course is not nil")
	}
}

// TestDeriveInternsOnlyReplacements: a derived revision shares each
// untouched course's row and interns each replacement's tags anew.
func TestDeriveInternsOnlyReplacements(t *testing.T) {
	base := dataset.Repository()
	ids := dataset.AllCourseIDs()
	c := base.Course(ids[0]).Clone()
	c.Materials = c.Materials[:1]
	next, err := base.Derive([]*materials.Course{c})
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, "derived", next.Group(ids))
	if next.Vocabulary() != base.Vocabulary() {
		t.Fatal("a derived revision has its own vocabulary")
	}
	for _, id := range ids[1:] {
		if got, want := next.TagRow(id), base.TagRow(id); &got[0] != &want[0] {
			t.Fatalf("course %q's row was not shared", id)
		}
	}
	if slices.Equal(next.TagRow(ids[0]), base.TagRow(ids[0])) {
		t.Fatal("the replaced course kept its old row")
	}
}

// TestGroupMatrixAllocs bounds the allocations of the served route to
// the course matrix of all 20 seed courses: at most the group's three
// and the builder's six. The dense route it replaced (a TagSet per
// course, the dense matrix, FromDense) made 238.
func TestGroupMatrixAllocs(t *testing.T) {
	repo := dataset.Repository()
	ids := dataset.AllCourseIDs()
	got := testing.AllocsPerRun(20, func() { repo.Group(ids).Matrix() })
	if got > 9 {
		t.Fatalf("Group(all).Matrix() makes %v allocations, want at most 9", got)
	}
}

// TestVocabularySharedAcrossRepositories builds repositories over one
// guideline list from several goroutines at once, the first build of
// its vocabulary among them: they share one vocabulary, which ranks
// every entry of the guidelines once, in ID order.
func TestVocabularySharedAcrossRepositories(t *testing.T) {
	gl := []*ontology.Guideline{ontology.PDC20Beta(), ontology.CS2013()}
	vocabs := make([]*materials.Vocabulary, 4)
	var wg sync.WaitGroup
	for i := range vocabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vocabs[i] = materials.NewRepository(gl...).Vocabulary()
		}()
	}
	wg.Wait()
	v := vocabs[0]
	for _, other := range vocabs[1:] {
		if other != v {
			t.Fatal("repositories over one guideline list built two vocabularies")
		}
	}
	ids := map[string]bool{}
	for _, g := range gl {
		for _, n := range g.Nodes() {
			ids[n.ID] = true
			if r, ok := v.Rank(n.ID); !ok || v.Tag(r) != n.ID {
				t.Fatalf("entry %q has no rank", n.ID)
			}
		}
	}
	if v.Len() != len(ids) {
		t.Fatalf("vocabulary of %d entries, the guidelines hold %d", v.Len(), len(ids))
	}
	for r := int32(1); r < int32(v.Len()); r++ {
		if v.Tag(r-1) >= v.Tag(r) {
			t.Fatalf("rank %d %q does not sort before rank %d %q", r-1, v.Tag(r-1), r, v.Tag(r))
		}
	}
	if _, ok := v.Rank("NOPE/not-a-tag"); ok {
		t.Fatal("an unknown tag has a rank")
	}
}

// FuzzCourseMatrix builds courses from its input and holds both course
// matrix routes to the dense one: an ad-hoc group over arbitrary tag
// strings, and a repository group over guideline tags. Byte pairs add
// a material to a course, or a tag to the course's last material.
func FuzzCourseMatrix(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{5, 4, 200, 132, 7, 0, 255})
	f.Add([]byte{2})
	pool := materialstest.Tags()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%8)
		adHoc := make([]*materials.Course, n)
		known := make([]*materials.Course, n)
		for i := range adHoc {
			id := fmt.Sprintf("c%d", i)
			adHoc[i] = &materials.Course{ID: id, Name: id}
			known[i] = &materials.Course{ID: id, Name: id}
		}
		for p := 1; p+1 < len(data); p += 2 {
			i, b := int(data[p]&0x7f)%n, data[p+1]
			raw, tag := string(rune('a'+b%5))+string(rune(b)), pool[(int(b)*37+p)%len(pool)]
			for _, side := range []struct {
				c   *materials.Course
				tag string
			}{{adHoc[i], raw}, {known[i], tag}} {
				c := side.c
				if data[p]&0x80 != 0 && len(c.Materials) > 0 {
					m := c.Materials[len(c.Materials)-1]
					m.Tags = append(m.Tags, side.tag)
					continue
				}
				c.Materials = append(c.Materials, &materials.Material{
					ID: fmt.Sprintf("%s/m%d", c.ID, len(c.Materials)), Title: "m",
					Type: materials.Lab, Tags: []string{side.tag},
				})
			}
		}
		g := materials.NewGroup(adHoc)
		checkRows(t, "ad hoc", g)
		a, tags := g.Matrix()
		checkMatrix(t, "ad hoc", adHoc, a, tags)

		repo, err := materialstest.Repository(known)
		if err != nil {
			t.Fatal(err)
		}
		g = repo.Group(materialstest.IDs(known))
		checkRows(t, "repository", g)
		a, tags = g.Matrix()
		checkMatrix(t, "repository", known, a, tags)
	})
}
