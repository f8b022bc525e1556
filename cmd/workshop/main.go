// Command workshop simulates the paper's two-day course analysis workshop
// (§3.2) end to end for a single course: day one classifies the course's
// materials against the guidelines (here: loads one dataset course and
// validates it into a fresh repository); day two runs the analyses the
// attendees are taught — coverage, alignment between material types,
// finding related materials, and the course's anchor points for PDC
// content.
//
// The per-course analyses (anchor points, guideline audit, public PDC
// material recommendations) are the same registered engine analyses
// the HTTP API serves: the workshop dispatches them by name through an
// engine.Executor rather than wiring the analysis packages directly.
//
// Usage:
//
//	workshop [-course ID]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"sort"

	"csmaterials/internal/agreement"
	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
	"csmaterials/internal/search"
	"csmaterials/internal/serving"
	"csmaterials/internal/simgraph"
)

func main() {
	course := flag.String("course", "uncc-2214-krs", "course to analyze")
	flag.Parse()
	if err := run(os.Stdout, *course); err != nil {
		fmt.Fprintf(os.Stderr, "workshop: %v\n", err)
		os.Exit(1)
	}
}

// newExecutor builds the analysis engine the workshop dispatches
// through — the same registry the API serves, minus the serving
// middleware it does not need.
func newExecutor() (*engine.Executor, error) {
	reg, err := analyses.Default()
	if err != nil {
		return nil, err
	}
	return engine.NewExecutor(reg, engine.ExecutorOptions{
		Datasets: dataset.NewRegistry(nil),
		Cache:    serving.NewCache(16),
	}), nil
}

// printer writes the workshop transcript. Output goes to the console or
// a test buffer, where a failed write has no recovery path, so write
// errors are discarded explicitly.
type printer struct{ w io.Writer }

func (p printer) printf(format string, args ...interface{}) {
	_, _ = fmt.Fprintf(p.w, format, args...)
}

func (p printer) println(args ...interface{}) {
	_, _ = fmt.Fprintln(p.w, args...)
}

// analyze dispatches one registered analysis for the course and returns
// its typed result.
func analyze(exec *engine.Executor, name, courseID string) (interface{}, error) {
	v, _, err := exec.Run(context.Background(), name, url.Values{"course": []string{courseID}})
	if err != nil {
		return nil, fmt.Errorf("%s analysis: %w", name, err)
	}
	return v, nil
}

func run(w io.Writer, courseID string) error {
	source := dataset.Repository().Course(courseID)
	if source == nil {
		return fmt.Errorf("unknown course %q", courseID)
	}
	exec, err := newExecutor()
	if err != nil {
		return err
	}
	out := printer{w}

	// --- Day 1: input the class into the system -------------------------
	out.printf("Day 1: classifying %q into a fresh repository\n", source.Name)
	repo := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	if err := repo.AddCourses(source); err != nil {
		return fmt.Errorf("classification rejected: %w", err)
	}
	out.printf("  %d materials classified against %d curriculum entries\n\n",
		len(source.Materials), len(source.TagSet()))

	// --- Day 2: study the coverage ---------------------------------------
	out.println("Day 2, step 1: coverage by knowledge area")
	counts := map[string]int{}
	cs := ontology.CS2013()
	for tag := range source.TagSet() {
		if n := cs.Lookup(tag); n != nil {
			counts[ontology.AreaOf(n).ID]++
		}
	}
	var areas []string
	for ka := range counts {
		areas = append(areas, ka)
	}
	sort.Slice(areas, func(i, j int) bool {
		if counts[areas[i]] != counts[areas[j]] {
			return counts[areas[i]] > counts[areas[j]]
		}
		return areas[i] < areas[j]
	})
	for _, ka := range areas {
		out.printf("  %-6s %3d entries\n", ka, counts[ka])
	}

	// --- Alignment between content delivery and assessment ---------------
	out.println("\nDay 2, step 2: alignment between lectures and assessments")
	var lectures, assessments []*materials.Material
	for _, m := range source.Materials {
		switch m.Type {
		case materials.Lecture, materials.Reading:
			lectures = append(lectures, m)
		case materials.Assignment, materials.Quiz, materials.Exam, materials.Lab, materials.Project:
			assessments = append(assessments, m)
		}
	}
	al := agreement.Align(lectures, assessments)
	out.printf("  Jaccard alignment: %.2f (%d shared, %d lecture-only, %d assessment-only tags)\n",
		al.Jaccard, len(al.Shared), len(al.OnlyLeft), len(al.OnlyRight))
	if len(al.OnlyLeft) > 0 {
		out.println("  covered in lectures but never assessed (first 5):")
		for i, tag := range al.OnlyLeft {
			if i == 5 {
				break
			}
			out.printf("    - %s\n", tag)
		}
	}

	// --- Find new materials for the class --------------------------------
	out.println("\nDay 2, step 3: finding related materials in the full repository")
	searcher := search.NewEngine(dataset.Repository())
	seed := source.Materials[0]
	out.printf("  materials similar to %q:\n", seed.Title)
	for _, r := range searcher.SimilarTo(seed.ID, 5) {
		out.printf("    %5.2f  %s (%s)\n", r.Score, r.Material.Title, r.Material.ID)
	}

	// --- Similarity map of the course's own materials --------------------
	out.println("\nDay 2, step 4: 2D similarity map of the course's materials")
	limit := len(source.Materials)
	if limit > 12 {
		limit = 12
	}
	g, err := simgraph.Build(source.Materials[:limit], simgraph.Jaccard)
	if err != nil {
		return err
	}
	pts, err := g.Embed(dataset.Seed)
	if err != nil {
		return err
	}
	for _, p := range pts {
		out.printf("    (%6.2f, %6.2f)  %s\n", p.X, p.Y, p.Material.ID)
	}

	// --- Anchor points ----------------------------------------------------
	out.println("\nDay 2, step 5: PDC anchor points for this course")
	v, err := analyze(exec, "anchors", courseID)
	if err != nil {
		return err
	}
	recs := v.([]analyses.AnchorRec)
	if len(recs) == 0 {
		out.println("  no high-confidence anchor points for this course")
	}
	for _, r := range recs {
		out.printf("  [%3.0f%%] %s\n", r.Score*100, r.Title)
		out.printf("         audience: %s\n", r.Audience)
		out.printf("         activity: %s\n", r.Activity)
	}

	// --- Audit against the guideline tiers --------------------------------
	out.println("\nDay 2, step 6: CS2013 tier audit and PDC readiness")
	v, err = analyze(exec, "audit", courseID)
	if err != nil {
		return err
	}
	aud := v.(*analyses.AuditResponse)
	out.printf("  core-1 coverage %.1f%%, core-2 coverage %.1f%%\n",
		100*aud.Core1Coverage, 100*aud.Core2Coverage)
	out.printf("  PDC prerequisite score: %.0f%% of the §4.7 prerequisite entries covered\n",
		100*aud.PrerequisiteScore)

	// --- Public PDC materials that fit this course -------------------------
	out.println("\nDay 2, step 7: public PDC materials that fit this course")
	v, err = analyze(exec, "pdcmaterials", courseID)
	if err != nil {
		return err
	}
	for i, r := range v.([]analyses.PDCRec) {
		if i == 5 {
			break
		}
		out.printf("  %5.2f  [%-14s] %s (+%d new PDC12 entries)\n",
			r.Score, r.Source, r.Title, r.NewPDC)
	}
	return nil
}
