package agreement

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/materials/materialstest"
	"csmaterials/internal/ontology"
)

// referenceCounts is the count AnalyzeGroup replaced, kept as its
// oracle: a scan of every material's tags that counts a tag once per
// course position.
func referenceCounts(courses []*materials.Course) map[string]int {
	counts, last := map[string]int{}, map[string]int{}
	for i, c := range courses {
		for _, m := range c.Materials {
			for _, tag := range m.Tags {
				if last[tag] != i+1 {
					last[tag] = i + 1
					counts[tag]++
				}
			}
		}
	}
	return counts
}

// TestAnalyzeGroupMatchesScan holds the counts from tag rows, through a
// repository's group and through Analyze's ad-hoc one, to the scan, on
// every seed group, on seeded random corpora, and on a list that
// repeats a course, as a bootstrap resample does.
func TestAnalyzeGroupMatchesScan(t *testing.T) {
	gl := []*ontology.Guideline{ontology.CS2013(), ontology.PDC12()}
	groups := map[string]*materials.Group{}
	for _, sg := range materialstest.SeedGroups() {
		groups[sg.Name] = dataset.Repository().Group(sg.IDs)
	}
	for seed := int64(1); seed <= 30; seed++ {
		courses := materialstest.RandomCourses(seed, 1+int(seed%8))
		repo, err := materialstest.Repository(courses)
		if err != nil {
			t.Fatal(err)
		}
		groups[fmt.Sprintf("seed %d", seed)] = repo.Group(materialstest.IDs(courses))
	}
	cs := dataset.CoursesByID(dataset.CS1CourseIDs())
	groups["repeated"] = materials.NewGroup(append(cs, cs[0], cs[2], cs[0]))
	for name, g := range groups {
		want := referenceCounts(g.Courses)
		fromRows, err := AnalyzeGroup(context.Background(), g, gl...)
		if err != nil {
			t.Fatal(err)
		}
		adHoc, err := Analyze(g.Courses, gl...)
		if err != nil {
			t.Fatal(err)
		}
		for route, a := range map[string]*Analysis{"rows": fromRows, "ad hoc": adHoc} {
			if !reflect.DeepEqual(a.Counts, want) {
				t.Fatalf("%s, %s: counts %v, want %v", name, route, a.Counts, want)
			}
			if !reflect.DeepEqual(a.Courses, materialstest.IDs(g.Courses)) {
				t.Fatalf("%s, %s: courses %v", name, route, a.Courses)
			}
		}
	}
}
