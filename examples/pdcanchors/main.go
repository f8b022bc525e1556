// pdcanchors runs the anchor-point recommender (§5.2) over the early CS
// courses of the dataset: for every CS1 and Data Structures course it
// prints the PDC content that fits what the course already covers,
// together with the PDC12 entries the content would teach.
//
// Dataset courses are analyzed through the registered "anchors" engine
// analysis — the same computation the API serves at
// /api/v1/courses/{id}/anchors, dispatched by name — while the final
// section drops to the recommender directly to score a course that is
// not in the dataset at all.
package main

import (
	"context"
	"fmt"
	"log"
	"net/url"

	"csmaterials/internal/anchor"
	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
	"csmaterials/internal/serving"
)

// recommend dispatches the registered anchors analysis for one dataset
// course.
func recommend(exec *engine.Executor, courseID string) []analyses.AnchorRec {
	v, _, err := exec.Run(context.Background(), "anchors", url.Values{"course": []string{courseID}})
	if err != nil {
		log.Fatal(err)
	}
	return v.([]analyses.AnchorRec)
}

func main() {
	rec, err := anchor.NewRecommender(ontology.CS2013(), ontology.PDC12())
	if err != nil {
		log.Fatal(err)
	}
	reg, err := analyses.Default()
	if err != nil {
		log.Fatal(err)
	}
	exec := engine.NewExecutor(reg, engine.ExecutorOptions{
		Datasets: dataset.NewRegistry(nil),
		Cache:    serving.NewCache(32),
	})

	fmt.Printf("rule base: %d PDC content insertion opportunities\n", len(rec.Rules()))
	for _, r := range rec.Rules() {
		fmt.Printf("  %-28s -> %s\n", r.ID, r.Audience)
	}

	groups := []struct {
		name string
		ids  []string
	}{
		{"CS1 courses", dataset.CS1CourseIDs()},
		{"Data Structures courses", dataset.DSCourseIDs()},
	}
	for _, grp := range groups {
		fmt.Printf("\n================ %s ================\n", grp.name)
		for _, c := range dataset.CoursesByID(grp.ids) {
			recs := recommend(exec, c.ID)
			fmt.Printf("\n--- %s (%s)\n", c.Name, c.Instructor)
			if len(recs) == 0 {
				fmt.Println("    no high-confidence anchor points; this course's coverage")
				fmt.Println("    does not support the rule base's prerequisites")
				continue
			}
			for _, r := range recs {
				fmt.Printf("    [%3.0f%%] %s\n", r.Score*100, r.Title)
				fmt.Printf("           %s\n", r.Activity)
			}
		}
	}

	// Aggregate view: which rules apply most broadly? This is what a PDC
	// content author would use to prioritize material development.
	fmt.Println("\n================ rule applicability across all 20 courses ================")
	applicability := map[string]int{}
	for _, c := range dataset.Courses() {
		for _, r := range recommend(exec, c.ID) {
			applicability[r.Rule]++
		}
	}
	for _, r := range rec.Rules() {
		n := applicability[r.ID]
		bar := ""
		for i := 0; i < n; i++ {
			bar += "#"
		}
		fmt.Printf("  %-28s %2d courses %s\n", r.ID, n, bar)
	}

	// Where would a brand-new OOP-flavored course anchor? A course that
	// is not in the dataset cannot go through the repository-backed
	// analysis, so this one uses the recommender directly.
	custom := &materials.Course{
		ID: "example-oop-course", Name: "A new OOP course", Group: materials.GroupOOP,
		Materials: []*materials.Material{{
			ID: "ex-m1", Title: "Classes and interfaces", Type: materials.Lecture,
			Tags: []string{
				"PL/object-oriented-programming/object-oriented-design-classes-and-objects",
				"PL/object-oriented-programming/encapsulation-and-information-hiding",
				"PL/object-oriented-programming/object-interfaces-and-abstract-classes",
				"PL/object-oriented-programming/collection-classes-and-iterators",
				"PL/object-oriented-programming/generics-and-parameterized-types",
			},
		}},
	}
	fmt.Println("\n================ a course not in the dataset ================")
	fmt.Print(anchor.Report(rec.Recommend(custom)))
}
