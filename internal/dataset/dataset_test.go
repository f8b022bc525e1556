package dataset

import (
	"strings"
	"testing"

	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

func TestTwentyCoursesInFigure1Order(t *testing.T) {
	cs := Courses()
	if len(cs) != 20 {
		t.Fatalf("dataset has %d courses, want 20 (Figure 1)", len(cs))
	}
	ids := AllCourseIDs()
	for i, c := range cs {
		if c.ID != ids[i] {
			t.Fatalf("course %d = %q, want %q", i, c.ID, ids[i])
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	// The shared instance must be stable, and regenerating a course from
	// its spec must reproduce the same tags.
	a := Courses()
	b := Courses()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Courses must return the shared instance")
		}
	}
	arch := buildArchetypes()
	uni := tagUniverse()
	for i, s := range courseSpecs[:3] {
		re := generate(s, i, arch, uni)
		want := a[i].SortedTags()
		got := re.SortedTags()
		if len(want) != len(got) {
			t.Fatalf("course %s regenerated with %d tags, want %d", s.id, len(got), len(want))
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("course %s tag %d differs", s.id, j)
			}
		}
	}
}

func TestGroupCounts(t *testing.T) {
	repo := Repository()
	counts := map[materials.CourseGroup]int{}
	for _, c := range repo.Courses() {
		counts[c.Group]++
		if c.SecondaryGroup != "" {
			counts[c.SecondaryGroup]++
		}
	}
	// Figure 1 group totals (counting dual labels).
	want := map[materials.CourseGroup]int{
		materials.GroupCS1:     6,
		materials.GroupOOP:     2, // ITCS 3112 + VCU's dual label
		materials.GroupDS:      5,
		materials.GroupAlgo:    2,
		materials.GroupSoftEng: 2,
		materials.GroupPDC:     3,
		materials.GroupOther:   2,
	}
	for g, n := range want {
		if counts[g] != n {
			t.Errorf("group %s has %d courses, want %d", g, counts[g], n)
		}
	}
}

func TestSubsetsMatchPaper(t *testing.T) {
	if n := len(CS1CourseIDs()); n != 6 {
		t.Errorf("CS1 subset has %d courses, want 6", n)
	}
	if n := len(DSCourseIDs()); n != 5 {
		t.Errorf("DS subset has %d courses, want 5", n)
	}
	if n := len(DSAlgoCourseIDs()); n != 7 {
		t.Errorf("DS+Algo subset has %d courses, want 7 (Figure 7)", n)
	}
	if n := len(PDCCourseIDs()); n != 3 {
		t.Errorf("PDC subset has %d courses, want 3", n)
	}
	// All subsets resolve.
	for _, ids := range [][]string{CS1CourseIDs(), DSCourseIDs(), DSAlgoCourseIDs(), PDCCourseIDs()} {
		CoursesByID(ids) // panics on a miss
	}
}

func TestCoursesByIDUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CoursesByID([]string{"nope"})
}

func TestAllCoursesValidateAgainstGuidelines(t *testing.T) {
	// Repository() already validates on AddCourses; this asserts it built.
	repo := Repository()
	if len(repo.Courses()) != 20 {
		t.Fatalf("repository has %d courses", len(repo.Courses()))
	}
	if repo.NumMaterials() < 400 {
		t.Fatalf("repository has only %d materials; expected several hundred", repo.NumMaterials())
	}
}

func TestCourseSizesRealistic(t *testing.T) {
	for _, c := range Courses() {
		n := len(c.TagSet())
		if n < 30 || n > 160 {
			t.Errorf("course %s maps to %d tags; outside the realistic 30-160 band", c.ID, n)
		}
		if len(c.Materials) < 10 {
			t.Errorf("course %s has only %d materials", c.ID, len(c.Materials))
		}
	}
}

// agreementCounts returns tag → number of courses among ids containing it.
func agreementCounts(ids []string) map[string]int {
	counts := map[string]int{}
	for _, c := range CoursesByID(ids) {
		for tag := range c.TagSet() {
			counts[tag]++
		}
	}
	return counts
}

func atLeast(counts map[string]int, k int) int {
	n := 0
	for _, v := range counts {
		if v >= k {
			n++
		}
	}
	return n
}

func areaOf(tag string) string {
	if n := ontology.CS2013().Lookup(tag); n != nil {
		return ontology.AreaOf(n).ID
	}
	if n := ontology.PDC12().Lookup(tag); n != nil {
		return "PDC12:" + ontology.AreaOf(n).ID
	}
	return "?"
}

// TestCS1AgreementShape asserts the Figure 3a / Figure 4 calibration: CS1
// courses map to over 200 tags, with sharply decreasing agreement, and
// the high-agreement core falls inside SDF (mostly Fundamental
// Programming Concepts).
func TestCS1AgreementShape(t *testing.T) {
	counts := agreementCounts(CS1CourseIDs())
	total := len(counts)
	if total < 200 || total > 320 {
		t.Errorf("CS1 distinct tags = %d, want 200-320 (paper: 'over 200')", total)
	}
	ge2, ge3, ge4 := atLeast(counts, 2), atLeast(counts, 3), atLeast(counts, 4)
	if ge2 < 45 || ge2 > 95 {
		t.Errorf("CS1 tags in >=2 courses = %d, want ~50 (45-95)", ge2)
	}
	if ge3 < 18 || ge3 > 45 {
		t.Errorf("CS1 tags in >=3 courses = %d, want ~25 (18-45)", ge3)
	}
	if ge4 < 8 || ge4 > 25 {
		t.Errorf("CS1 tags in >=4 courses = %d, want ~13 (8-25)", ge4)
	}
	// Paper: the >=4 agreement falls entirely within SDF, mostly within
	// Fundamental Programming Concepts.
	fpc := 0
	for tag, n := range counts {
		if n < 4 {
			continue
		}
		if ka := areaOf(tag); ka != "SDF" {
			t.Errorf("CS1 >=4 tag %q is in %s, want SDF only", tag, ka)
		}
		if strings.HasPrefix(tag, "SDF/fundamental-programming-concepts/") {
			fpc++
		}
	}
	if ge4 > 0 && float64(fpc)/float64(ge4) < 0.6 {
		t.Errorf("CS1 >=4 agreement: only %d/%d in Fundamental Programming Concepts", fpc, ge4)
	}
	// Paper Figure 4a: the >=2 agreement spans (at least) SDF, AL, AR, PL.
	kas := map[string]bool{}
	for tag, n := range counts {
		if n >= 2 {
			kas[areaOf(tag)] = true
		}
	}
	for _, want := range []string{"SDF", "AL", "AR", "PL"} {
		if !kas[want] {
			t.Errorf("CS1 >=2 agreement missing knowledge area %s", want)
		}
	}
}

// TestDSAgreementShape asserts the Figure 3b / Figure 6 calibration: DS
// courses agree much more than CS1 courses, the >=3 agreement spans the
// five KAs named in §4.5, and PL drops out at >=4.
func TestDSAgreementShape(t *testing.T) {
	counts := agreementCounts(DSCourseIDs())
	total := len(counts)
	if total < 200 || total > 320 {
		t.Errorf("DS distinct tags = %d, want ~250 (200-320)", total)
	}
	ge2, ge3 := atLeast(counts, 2), atLeast(counts, 3)
	if ge2 < 85 || ge2 > 150 {
		t.Errorf("DS tags in >=2 courses = %d, want ~120 (85-150)", ge2)
	}
	if ge3 < 40 || ge3 > 80 {
		t.Errorf("DS tags in >=3 courses = %d, want ~50 (40-80)", ge3)
	}

	// More agreement than CS1 both absolutely and relatively.
	cs1 := agreementCounts(CS1CourseIDs())
	cs1ge2 := atLeast(cs1, 2)
	if ge2 <= cs1ge2 {
		t.Errorf("DS >=2 (%d) must exceed CS1 >=2 (%d)", ge2, cs1ge2)
	}
	dsShare := float64(ge2) / float64(total)
	cs1Share := float64(cs1ge2) / float64(len(cs1))
	if dsShare <= cs1Share {
		t.Errorf("DS agreement share %.2f must exceed CS1 share %.2f", dsShare, cs1Share)
	}

	// §4.5: agreement at >=3 spans AL, SDF, DS, CN, PL.
	ka3 := map[string]bool{}
	ka4 := map[string]bool{}
	for tag, n := range counts {
		if n >= 3 {
			ka3[areaOf(tag)] = true
		}
		if n >= 4 {
			ka4[areaOf(tag)] = true
		}
	}
	for _, want := range []string{"AL", "SDF", "DS", "CN", "PL"} {
		if !ka3[want] {
			t.Errorf("DS >=3 agreement missing knowledge area %s", want)
		}
	}
	// The classic DS core survives at >=4: AL and SDF must be present.
	for _, want := range []string{"AL", "SDF"} {
		if !ka4[want] {
			t.Errorf("DS >=4 agreement missing knowledge area %s", want)
		}
	}
	// PL participation shrinks from >=3 to >=4 (the paper's "drops PL").
	pl3, pl4 := 0, 0
	for tag, n := range counts {
		if areaOf(tag) != "PL" {
			continue
		}
		if n >= 3 {
			pl3++
		}
		if n >= 4 {
			pl4++
		}
	}
	if pl4 >= pl3 && pl3 > 0 {
		t.Errorf("PL agreement must shrink from >=3 (%d) to >=4 (%d)", pl3, pl4)
	}
	if pl4 > 2 {
		t.Errorf("PL at >=4 = %d; paper drops PL entirely at >=4", pl4)
	}
}

// TestPDCAgreementShape asserts §4.7 / Figure 8: PDC courses agree mostly
// on PDC-related entries, and the non-parallelism agreement is limited to
// directed graphs, recursion / divide-and-conquer, and Big-Oh analysis.
func TestPDCAgreementShape(t *testing.T) {
	counts := agreementCounts(PDCCourseIDs())
	// The six anchors must each be shared by at least two PDC courses.
	anchors := []string{
		"DS/graphs-and-trees/directed-graphs",
		"SDF/fundamental-programming-concepts/the-concept-of-recursion",
		"SDF/algorithms-and-design/divide-and-conquer-strategies",
		"AL/algorithmic-strategies/divide-and-conquer",
		"AL/basic-analysis/big-o-notation-use",
		"AL/basic-analysis/asymptotic-analysis-of-upper-and-expected-complexity-bounds",
	}
	anchorSet := map[string]bool{}
	for _, a := range anchors {
		anchorSet[a] = true
		if counts[a] < 2 {
			t.Errorf("PDC anchor %q shared by %d courses, want >=2", a, counts[a])
		}
	}
	// KAs that directly relate to concurrency or parallelism.
	parallelKAs := map[string]bool{
		"PD": true, "SF": true, "OS": true, "AR": true,
		"PDC12:ARCH": true, "PDC12:PROG": true, "PDC12:ALGO": true, "PDC12:XCUT": true,
	}
	for tag, n := range counts {
		if n < 2 || anchorSet[tag] {
			continue
		}
		if !parallelKAs[areaOf(tag)] {
			t.Errorf("unexpected non-parallel shared tag %q (in %d PDC courses, area %s)", tag, n, areaOf(tag))
		}
	}
	// Most of the agreement must be in the PD knowledge area or PDC12.
	pdish, totalShared := 0, 0
	for tag, n := range counts {
		if n < 2 {
			continue
		}
		totalShared++
		ka := areaOf(tag)
		if ka == "PD" || strings.HasPrefix(ka, "PDC12:") {
			pdish++
		}
	}
	if totalShared == 0 || float64(pdish)/float64(totalShared) < 0.6 {
		t.Errorf("PDC shared tags: only %d/%d in PD/PDC12 areas", pdish, totalShared)
	}
}

func TestNoiseIsolation(t *testing.T) {
	// Noise buckets partition by tag hash: a tag's bucket decides the only
	// course index that may have drawn it as noise, so any tag present in
	// two courses with different indices must come from archetypes. Verify
	// the partition function is total and stable.
	seen := map[int]bool{}
	for _, tag := range tagUniverse() {
		b := bucketOf(tag)
		if b < 0 || b >= noiseBuckets {
			t.Fatalf("bucketOf(%q) = %d out of range", tag, b)
		}
		seen[b] = true
	}
	if len(seen) < noiseBuckets-2 {
		t.Errorf("only %d of %d noise buckets populated; hash is skewed", len(seen), noiseBuckets)
	}
}

func TestMaterialGranularity(t *testing.T) {
	// Materials carry 1-3 tags each, mirroring CS Materials granularity.
	for _, c := range Courses() {
		for _, m := range c.Materials {
			if len(m.Tags) < 1 || len(m.Tags) > 3 {
				t.Fatalf("material %s has %d tags, want 1-3", m.ID, len(m.Tags))
			}
		}
	}
}

func TestDualLabeledCourses(t *testing.T) {
	repo := Repository()
	ucf := repo.Course("ucf-cop3502-ahmed")
	if ucf.Group != materials.GroupCS1 || ucf.SecondaryGroup != materials.GroupDS {
		t.Errorf("UCF course labels = %s/%s, want CS1/DS", ucf.Group, ucf.SecondaryGroup)
	}
	vcu := repo.Course("vcu-cmsc256-duke")
	if vcu.Group != materials.GroupDS || vcu.SecondaryGroup != materials.GroupOOP {
		t.Errorf("VCU course labels = %s/%s, want DS/OOP", vcu.Group, vcu.SecondaryGroup)
	}
}

func TestPDCCoursesCarryPDC12Tags(t *testing.T) {
	pdc := ontology.PDC12()
	for _, c := range CoursesByID(PDCCourseIDs()) {
		n := 0
		for tag := range c.TagSet() {
			if pdc.Lookup(tag) != nil {
				n++
			}
		}
		if n < 10 {
			t.Errorf("PDC course %s has only %d PDC12 tags", c.ID, n)
		}
	}
	// Non-PDC courses must not carry PDC12 tags (they were classified
	// against CS2013 only).
	for _, c := range Courses() {
		if c.HasGroup(materials.GroupPDC) {
			continue
		}
		for tag := range c.TagSet() {
			if pdc.Lookup(tag) != nil {
				t.Errorf("non-PDC course %s carries PDC12 tag %q", c.ID, tag)
			}
		}
	}
}
