package materials

import (
	"strings"
	"testing"

	"csmaterials/internal/ontology"
)

// FuzzLoadJSON feeds arbitrary bytes to the repository loader: it must
// never panic, and whatever it accepts must be a valid repository state
// (validated courses, a consistent material index and count).
func FuzzLoadJSON(f *testing.F) {
	f.Add(`{"courses":[]}`)
	f.Add(`{"courses":[{"id":"x","name":"X","group":"CS1","materials":[]}]}`)
	f.Add(`{"courses":[{"id":"x","name":"X","group":"CS1","materials":[{"id":"m","title":"t","type":"lecture","tags":["SDF/fundamental-programming-concepts/the-concept-of-recursion"]}]}]}`)
	f.Add(`{not json`)
	f.Add(`null`)
	f.Add(`{"courses":[{"id":"","name":""}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		repo := NewRepository(ontology.CS2013(), ontology.PDC12())
		err := repo.LoadJSON(strings.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted input must leave a consistent repository.
		n := 0
		for _, c := range repo.Courses() {
			n += len(c.Materials)
			if err := c.Validate(); err != nil {
				t.Fatalf("accepted invalid course: %v", err)
			}
			for _, m := range c.Materials {
				if repo.Material(m.ID) != m {
					t.Fatalf("material index inconsistent for %q", m.ID)
				}
				for _, tag := range m.Tags {
					if ontology.CS2013().Lookup(tag) == nil && ontology.PDC12().Lookup(tag) == nil {
						t.Fatalf("accepted unknown tag %q", tag)
					}
				}
			}
		}
		if repo.NumMaterials() != n {
			t.Fatalf("NumMaterials = %d, the courses hold %d", repo.NumMaterials(), n)
		}
	})
}
