package factorize

import (
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/nnmf"
	"csmaterials/internal/ontology"
)

func guidelines() []*ontology.Guideline {
	return []*ontology.Guideline{ontology.CS2013(), ontology.PDC12()}
}

func analyzeOrDie(t *testing.T, courses []*materials.Course, k int) *Model {
	t.Helper()
	m, err := Analyze(courses, k, PaperOptions(), guidelines()...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAnalyzeInputValidation(t *testing.T) {
	if _, err := Analyze(nil, 3, PaperOptions(), guidelines()...); err == nil {
		t.Error("no courses accepted")
	}
	if _, err := Analyze(dataset.Courses(), 3, PaperOptions()); err == nil {
		t.Error("no guidelines accepted")
	}
	if _, err := Analyze(dataset.Courses(), 0, PaperOptions(), guidelines()...); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestModelShapes(t *testing.T) {
	m := analyzeOrDie(t, dataset.Courses(), 4)
	if m.K != 4 {
		t.Fatalf("K = %d", m.K)
	}
	if m.W.Rows() != 20 || m.W.Cols() != 4 {
		t.Fatalf("W dims %dx%d", m.W.Rows(), m.W.Cols())
	}
	if m.H.Rows() != 4 || m.H.Cols() != len(m.Tags) {
		t.Fatalf("H dims %dx%d vs %d tags", m.H.Rows(), m.H.Cols(), len(m.Tags))
	}
	if rows, cols := m.A.Dims(); rows != 20 || cols != len(m.Tags) {
		t.Fatalf("A dims %dx%d", rows, cols)
	}
}

func TestTypeShareSumsToOne(t *testing.T) {
	m := analyzeOrDie(t, dataset.Courses(), 4)
	for i := range m.Courses {
		sum := 0.0
		for _, v := range m.TypeShare(i) {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("course %d type shares sum to %v", i, sum)
		}
	}
}

func TestCourseIndexAndTypeOfCourse(t *testing.T) {
	m := analyzeOrDie(t, dataset.Courses(), 4)
	if m.CourseIndex("uncc-2214-krs") != 0 {
		t.Fatalf("CourseIndex = %d", m.CourseIndex("uncc-2214-krs"))
	}
	if m.CourseIndex("nope") != -1 {
		t.Fatal("unknown course should give -1")
	}
	if got := m.TypeOfCourse("uncc-2214-krs"); got != m.DominantType(0) {
		t.Fatalf("TypeOfCourse = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TypeOfCourse(unknown) must panic")
		}
	}()
	m.TypeOfCourse("nope")
}

func TestTopTagsDescendingAndLabeled(t *testing.T) {
	m := analyzeOrDie(t, dataset.Courses(), 4)
	top := m.TopTags(0, 10)
	if len(top) != 10 {
		t.Fatalf("TopTags returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Weight > top[i-1].Weight {
			t.Fatal("TopTags not descending")
		}
	}
	// Over-asking clamps.
	if got := m.TopTags(0, 1<<20); len(got) != len(m.Tags) {
		t.Fatalf("clamped TopTags = %d", len(got))
	}
}

func TestKAShareSumsToOne(t *testing.T) {
	m := analyzeOrDie(t, dataset.Courses(), 4)
	for tIdx := 0; tIdx < 4; tIdx++ {
		sum := 0.0
		for _, s := range m.KAShare(tIdx) {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("type %d KA shares sum to %v", tIdx, sum)
		}
	}
}

func TestTypeLabelNonEmpty(t *testing.T) {
	m := analyzeOrDie(t, dataset.Courses(), 4)
	for tIdx := 0; tIdx < 4; tIdx++ {
		if m.TypeLabel(tIdx) == "" || m.TypeLabel(tIdx) == "empty" {
			t.Fatalf("type %d has label %q", tIdx, m.TypeLabel(tIdx))
		}
	}
}

// TestFigure2AllCoursesSeparation asserts §4.2: factorizing all courses
// with k=4 produces one dimension per family — data structures, software
// engineering, parallel computing, and CS1.
func TestFigure2AllCoursesSeparation(t *testing.T) {
	m := analyzeOrDie(t, dataset.Courses(), 4)

	// The three PDC courses share a dominant dimension.
	pdcType := m.TypeOfCourse("uncc-3145-saule")
	for _, id := range dataset.PDCCourseIDs() {
		if m.TypeOfCourse(id) != pdcType {
			t.Errorf("PDC course %s not in the PDC dimension", id)
		}
	}
	// The two software engineering courses share a dimension, distinct
	// from PDC.
	seType := m.TypeOfCourse("gsu-csc4350-levine")
	if m.TypeOfCourse("uncc-4155-payton") != seType {
		t.Error("SE courses split across dimensions")
	}
	if seType == pdcType {
		t.Error("SE and PDC collapsed into one dimension")
	}
	// The data structure and algorithms courses share a dimension.
	dsType := m.TypeOfCourse("uncc-2214-krs")
	for _, id := range []string{"uncc-2214-saule", "bsc-cac210-wagner", "vcu-cmsc256-duke", "uncc-2215-krs", "hanover-cs225-wahl"} {
		if m.TypeOfCourse(id) != dsType {
			t.Errorf("DS/Algo course %s not in the DS dimension", id)
		}
	}
	// A majority of CS1 courses share the remaining dimension.
	cs1Type := m.TypeOfCourse("ccc-csci40-kerney")
	if cs1Type == pdcType || cs1Type == seType || cs1Type == dsType {
		t.Error("CS1 dimension collides with another family")
	}
	n := 0
	for _, id := range dataset.CS1CourseIDs() {
		if m.TypeOfCourse(id) == cs1Type {
			n++
		}
	}
	if n < 4 {
		t.Errorf("only %d/6 CS1 courses in the CS1 dimension", n)
	}
}

// TestFigure5CS1Flavors asserts §4.4: three CS1 types — algorithmic
// (Ahmed), imperative with data representation (Kerney, Bourke), and
// object-oriented (Singh) — and the k-selection diagnostics.
func TestFigure5CS1Flavors(t *testing.T) {
	m := analyzeOrDie(t, dataset.CoursesByID(dataset.CS1CourseIDs()), 3)

	ahmed := m.TypeOfCourse("ucf-cop3502-ahmed")
	kerney := m.TypeOfCourse("ccc-csci40-kerney")
	singh := m.TypeOfCourse("washu-cse131-singh")
	if ahmed == kerney || kerney == singh || ahmed == singh {
		t.Fatalf("CS1 flavors collapsed: ahmed=%d kerney=%d singh=%d", ahmed, kerney, singh)
	}
	// Bourke (C course with memory representation) goes with Kerney.
	if m.TypeOfCourse("unl-csce155e-bourke") != kerney {
		t.Error("Bourke not in the imperative type")
	}
	// Kurdia (intro to programming) is imperative too.
	if m.TypeOfCourse("tulane-cmps1100-kurdia") != kerney {
		t.Error("Kurdia not in the imperative type")
	}

	// H-matrix reading of §4.4: Ahmed's type is the most
	// Algorithms-heavy, Kerney's carries the Architecture (data
	// representation) mass, Singh's the Programming Languages mass.
	alShare := func(tIdx int) float64 { return m.KAShare(tIdx)["AL"] }
	arShare := func(tIdx int) float64 { return m.KAShare(tIdx)["AR"] }
	plShare := func(tIdx int) float64 { return m.KAShare(tIdx)["PL"] }
	for _, other := range []int{kerney, singh} {
		if alShare(ahmed) <= alShare(other) {
			t.Errorf("type %d (algorithmic) AL share %.3f not above type %d's %.3f", ahmed, alShare(ahmed), other, alShare(other))
		}
	}
	for _, other := range []int{ahmed, singh} {
		if arShare(kerney) <= arShare(other) {
			t.Errorf("type %d (imperative) AR share %.3f not above type %d's %.3f", kerney, arShare(kerney), other, arShare(other))
		}
	}
	for _, other := range []int{ahmed, kerney} {
		if plShare(singh) <= plShare(other) {
			t.Errorf("type %d (OOP) PL share %.3f not above type %d's %.3f", singh, plShare(singh), other, plShare(other))
		}
	}
	// All three types carry SDF mass (they are all CS1 courses).
	for tIdx := 0; tIdx < 3; tIdx++ {
		if m.KAShare(tIdx)["SDF"] < 0.1 {
			t.Errorf("type %d has almost no SDF mass (%.3f)", tIdx, m.KAShare(tIdx)["SDF"])
		}
	}
}

// TestFigure5KSelection asserts the paper's model-selection observation:
// k=4 produces more redundant H rows than k=3 (two dimensions "almost
// identical", an overfit), and k=2 fits worse than k=3.
func TestFigure5KSelection(t *testing.T) {
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	diag, err := CompareK(courses, []int{2, 3, 4}, PaperOptions(), guidelines()...)
	if err != nil {
		t.Fatal(err)
	}
	if diag[2].Redundancy <= diag[1].Redundancy {
		t.Errorf("k=4 redundancy %.3f not above k=3's %.3f (the paper's overfit signal)",
			diag[2].Redundancy, diag[1].Redundancy)
	}
	if diag[0].Err <= diag[1].Err {
		t.Errorf("k=2 error %.4f should exceed k=3 error %.4f", diag[0].Err, diag[1].Err)
	}
}

// TestFigure7DSFlavors asserts §4.6: three DS types — applications
// (UNCC 2214 sections), OOP (VCU), combinatorial (BSC + the Algorithms
// courses) — with UCF spreading across types.
func TestFigure7DSFlavors(t *testing.T) {
	m := analyzeOrDie(t, dataset.CoursesByID(dataset.DSAlgoCourseIDs()), 3)

	apps := m.TypeOfCourse("uncc-2214-krs")
	oop := m.TypeOfCourse("vcu-cmsc256-duke")
	comb := m.TypeOfCourse("uncc-2215-krs")
	if apps == oop || oop == comb || apps == comb {
		t.Fatalf("DS flavors collapsed: apps=%d oop=%d comb=%d", apps, oop, comb)
	}
	if m.TypeOfCourse("uncc-2214-saule") != apps {
		t.Error("second 2214 section not in the applications type")
	}
	if m.TypeOfCourse("bsc-cac210-wagner") != comb {
		t.Error("BSC course not in the combinatorial type")
	}
	if m.TypeOfCourse("hanover-cs225-wahl") != comb {
		t.Error("Hanover Algorithms course not in the combinatorial type")
	}

	// H-matrix reading: the OOP type has the largest PL share, the
	// applications type the largest CN (Computational Science) share, and
	// the combinatorial type the largest AL share.
	share := func(tIdx int, ka string) float64 { return m.KAShare(tIdx)[ka] }
	for _, other := range []int{apps, comb} {
		if share(oop, "PL") <= share(other, "PL") {
			t.Errorf("OOP type PL share %.3f not above type %d's %.3f", share(oop, "PL"), other, share(other, "PL"))
		}
	}
	for _, other := range []int{oop, comb} {
		if share(apps, "CN") <= share(other, "CN") {
			t.Errorf("applications type CN share %.3f not above type %d's %.3f", share(apps, "CN"), other, share(other, "CN"))
		}
	}
	for _, other := range []int{apps, oop} {
		if share(comb, "AL") <= share(other, "AL") {
			t.Errorf("combinatorial type AL share %.3f not above type %d's %.3f", share(comb, "AL"), other, share(other, "AL"))
		}
	}

	// UCF spreads across the types: it must be among the two most even
	// courses of the analysis, and no share may be overwhelming.
	ucf := m.CourseIndex("ucf-cop3502-ahmed")
	ucfEven := m.Evenness(ucf)
	higher := 0
	for i := range m.Courses {
		if i != ucf && m.Evenness(i) > ucfEven {
			higher++
		}
	}
	if higher > 1 {
		t.Errorf("UCF evenness %.2f is only rank %d; paper says it hits all three types evenly", ucfEven, higher+1)
	}
	for _, s := range m.TypeShare(ucf) {
		if s > 0.92 {
			t.Errorf("UCF type share %.2f too concentrated", s)
		}
	}
}

func TestGroupPurityCoversAllCourses(t *testing.T) {
	m := analyzeOrDie(t, dataset.Courses(), 4)
	total := 0
	for _, counts := range m.GroupPurity() {
		for _, n := range counts {
			total += n
		}
	}
	if total != len(m.Courses) {
		t.Fatalf("GroupPurity covers %d courses, want %d", total, len(m.Courses))
	}
}

func TestRedundancyInUnitRange(t *testing.T) {
	m := analyzeOrDie(t, dataset.Courses(), 4)
	r := m.Redundancy()
	if r < 0 || r > 1 {
		t.Fatalf("Redundancy = %v", r)
	}
}

func TestCompareKEmptyCourses(t *testing.T) {
	if _, err := CompareK(nil, []int{2}, nnmf.Options{}, guidelines()...); err == nil {
		t.Fatal("CompareK accepted no courses")
	}
}

func TestProjectTrainingCoursesRecoverTheirTypes(t *testing.T) {
	m := analyzeOrDie(t, dataset.CoursesByID(dataset.CS1CourseIDs()), 3)
	for i, c := range m.Courses {
		if got := m.ProjectDominant(c); got != m.DominantType(i) {
			t.Errorf("course %s: projected type %d, fitted type %d", c.ID, got, m.DominantType(i))
		}
	}
}

func TestProjectSyntheticOOPCourse(t *testing.T) {
	m := analyzeOrDie(t, dataset.CoursesByID(dataset.CS1CourseIDs()), 3)
	oop := &materials.Course{
		ID: "new-oop", Name: "New OOP course", Group: materials.GroupOOP,
		Materials: []*materials.Material{{
			ID: "new-m", Title: "m", Type: materials.Lecture,
			Tags: []string{
				"PL/object-oriented-programming/object-oriented-design-classes-and-objects",
				"PL/object-oriented-programming/inheritance-and-subtyping",
				"PL/object-oriented-programming/encapsulation-and-information-hiding",
				"PL/object-oriented-programming/subclasses-and-method-overriding",
				"PL/object-oriented-programming/polymorphism-subtype-polymorphism-versus-parametric",
			},
		}},
	}
	if got, want := m.ProjectDominant(oop), m.TypeOfCourse("washu-cse131-singh"); got != want {
		t.Fatalf("synthetic OOP course projected to type %d, want Singh's OOP type %d", got, want)
	}
	shares := m.Project(oop, 0)
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("projected shares sum to %v", sum)
	}
}

func TestProjectUnknownTagsIgnored(t *testing.T) {
	m := analyzeOrDie(t, dataset.CoursesByID(dataset.CS1CourseIDs()), 3)
	alien := &materials.Course{
		ID: "alien", Name: "Alien", Group: materials.GroupOther,
		Materials: []*materials.Material{{
			ID: "alien-m", Title: "m", Type: materials.Lecture,
			Tags: []string{"NC/introduction/layering-and-its-purposes"},
		}},
	}
	shares := m.Project(alien, 50)
	for _, v := range shares {
		if v < 0 {
			t.Fatal("negative projected share")
		}
	}
}
