package agreement

import (
	"context"
	"fmt"
	"reflect"
	"sort"
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

// referenceKACounts is the per-area count KACounts replaced, kept as
// its oracle: a scan of the Counts map that looks each qualifying tag
// up in the guidelines and builds its area ID, prefix and all, per
// tag.
func referenceKACounts(a *Analysis, k int) map[string]int {
	out := map[string]int{}
	for tag, c := range a.Counts {
		if c < k {
			continue
		}
		for gi, g := range a.guidelines {
			n := g.Lookup(tag)
			if n == nil {
				continue
			}
			area := ontology.AreaOf(n)
			if area == nil {
				continue
			}
			id := area.ID
			if gi > 0 {
				id = g.Name + ":" + id
			}
			out[id]++
			break
		}
	}
	return out
}

// TestKASpanIsSortedKACountsKeys holds KACounts to the tag-by-tag scan
// it replaced, and KASpan to the sorted keys of KACounts, at every
// agreement level, on every seed group and on seeded random corpora.
func TestKASpanIsSortedKACountsKeys(t *testing.T) {
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
	for name, g := range groups {
		a, err := AnalyzeGroup(context.Background(), g, gl...)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= len(g.Courses)+1; k++ {
			counts := a.KACounts(k)
			if want := referenceKACounts(a, k); !reflect.DeepEqual(counts, want) {
				t.Fatalf("%s, k=%d: KACounts %v, want %v", name, k, counts, want)
			}
			keys := make([]string, 0, len(counts))
			for ka := range counts {
				keys = append(keys, ka)
			}
			sort.Strings(keys)
			if span := a.KASpan(k); !reflect.DeepEqual(span, keys) {
				t.Fatalf("%s, k=%d: KASpan %v, want the sorted keys of KACounts %v", name, k, span, keys)
			}
		}
	}
}
