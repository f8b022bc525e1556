// Package materialstest builds the course corpora the differential
// tests of the group analyses run on: the seed corpus's analysis
// groups and seeded random corpora.
package materialstest

import (
	"fmt"
	"math/rand"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

// Group is a named list of course IDs of the seed corpus.
type Group struct {
	Name string
	IDs  []string
}

// SeedGroups returns every group the analyses serve on the seed corpus.
func SeedGroups() []Group {
	return []Group{
		{"cs1", dataset.CS1CourseIDs()},
		{"ds", dataset.DSCourseIDs()},
		{"dsalgo", dataset.DSAlgoCourseIDs()},
		{"pdc", dataset.PDCCourseIDs()},
		{"all", dataset.AllCourseIDs()},
	}
}

// Tags returns the entry IDs of CS2013 and PDC12, sorted within each.
func Tags() []string {
	var out []string
	for _, g := range []*ontology.Guideline{ontology.CS2013(), ontology.PDC12()} {
		for _, n := range g.Nodes() {
			out = append(out, n.ID)
		}
	}
	return out
}

// RandomCourses returns n courses, the same for the same seed, whose
// materials are tagged from a pool of CS2013 and PDC12 entries small
// enough that courses share tags and materials repeat them. Some
// courses have no materials, so empty tag sets occur.
func RandomCourses(seed int64, n int) []*materials.Course {
	rng := rand.New(rand.NewSource(seed))
	all := Tags()
	pool := make([]string, 1+rng.Intn(60))
	for i := range pool {
		pool[i] = all[rng.Intn(len(all))]
	}
	types := materials.ValidTypes()
	out := make([]*materials.Course, n)
	for i := range out {
		c := &materials.Course{ID: fmt.Sprintf("r%d-c%d", seed, i), Name: "random", Group: materials.GroupCS1}
		for m := rng.Intn(8); m > 0; m-- {
			tags := make([]string, 1+rng.Intn(4))
			for t := range tags {
				tags[t] = pool[rng.Intn(len(pool))]
			}
			c.Materials = append(c.Materials, &materials.Material{
				ID:    fmt.Sprintf("%s/m%d", c.ID, len(c.Materials)),
				Title: "m", Type: types[rng.Intn(len(types))], Tags: tags,
			})
		}
		out[i] = c
	}
	return out
}

// Repository returns a repository over CS2013 and PDC12 holding courses.
func Repository(courses []*materials.Course) (*materials.Repository, error) {
	repo := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	if err := repo.AddCourses(courses...); err != nil {
		return nil, err
	}
	return repo, nil
}

// IDs returns the courses' IDs, in order.
func IDs(courses []*materials.Course) []string {
	out := make([]string, len(courses))
	for i, c := range courses {
		out[i] = c.ID
	}
	return out
}
