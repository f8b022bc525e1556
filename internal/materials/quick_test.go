package materials

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"csmaterials/internal/ontology"
)

// randomCourse builds a random valid course from real CS2013 leaf tags.
func randomCourse(rng *rand.Rand, id string, leaves []string) *Course {
	nMat := rng.Intn(10) + 1
	c := &Course{ID: id, Name: "course " + id, Group: GroupCS1}
	for m := 0; m < nMat; m++ {
		nTags := rng.Intn(4) + 1
		tags := make([]string, nTags)
		for t := range tags {
			tags[t] = leaves[rng.Intn(len(leaves))]
		}
		c.Materials = append(c.Materials, &Material{
			ID:    fmt.Sprintf("%s-m%d", id, m),
			Title: fmt.Sprintf("material %d", m),
			Type:  ValidTypes()[rng.Intn(len(ValidTypes()))],
			Tags:  tags,
		})
	}
	return c
}

func leafIDs() []string {
	leaves := ontology.CS2013().Leaves()
	out := make([]string, len(leaves))
	for i, l := range leaves {
		out[i] = l.ID
	}
	return out
}

// TestPropRandomCoursesRoundTripJSON: any valid random course survives
// SaveJSON → LoadJSON with its tag set intact.
func TestPropRandomCoursesRoundTripJSON(t *testing.T) {
	leaves := leafIDs()
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%5) + 1
		repo := NewRepository(ontology.CS2013())
		var originals []*Course
		for i := 0; i < n; i++ {
			c := randomCourse(rng, fmt.Sprintf("c%d", i), leaves)
			if err := repo.AddCourses(c); err != nil {
				return false
			}
			originals = append(originals, c)
		}
		var buf bytes.Buffer
		if err := repo.SaveJSON(&buf); err != nil {
			return false
		}
		re := NewRepository(ontology.CS2013())
		if err := re.LoadJSON(&buf); err != nil {
			return false
		}
		for _, c := range originals {
			got := re.Course(c.ID)
			if got == nil {
				return false
			}
			ws, gs := c.TagSet(), got.TagSet()
			if len(ws) != len(gs) {
				return false
			}
			for tag := range ws {
				if !gs[tag] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropCourseMatrixConsistent: for random courses, the course matrix
// row sums equal the tag-set sizes and every set tag has a 1 column.
func TestPropCourseMatrixConsistent(t *testing.T) {
	leaves := leafIDs()
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%4) + 2
		var courses []*Course
		for i := 0; i < n; i++ {
			courses = append(courses, randomCourse(rng, fmt.Sprintf("c%d", i), leaves))
		}
		csr, cols := CourseMatrix(courses)
		a := csr.ToDense()
		colIdx := map[string]int{}
		for j, t := range cols {
			colIdx[t] = j
		}
		for i, c := range courses {
			set := c.TagSet()
			if int(a.RowSums()[i]) != len(set) {
				return false
			}
			for tag := range set {
				j, ok := colIdx[tag]
				if !ok || a.At(i, j) != 1 { // lint:exact — incidence entries are exact 0/1
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropTagCountsMatchMaterials: a course's TagCounts sums to the total
// number of (material, tag) incidences.
func TestPropTagCountsMatchMaterials(t *testing.T) {
	leaves := leafIDs()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCourse(rng, "c", leaves)
		counts := c.TagCounts()
		sum := 0
		for _, n := range counts {
			sum += n
		}
		want := 0
		for _, m := range c.Materials {
			want += len(m.Tags)
		}
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
