package dataset

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"csmaterials/internal/materials"
)

// firstMaterial returns the first course of the default corpus together
// with its first material.
func firstMaterial(t *testing.T) (*materials.Course, *materials.Material) {
	t.Helper()
	c := Repository().Courses()[0]
	if len(c.Materials) == 0 {
		t.Fatalf("seed course %q has no materials", c.ID)
	}
	return c, c.Materials[0]
}

// coveredMaterial finds a material in the default corpus whose every tag
// also appears on another material of the same course, so retagging it
// to a subset of its own tags leaves the course tag set unchanged. The
// generator duplicates about a third of each course's tags across two
// materials, so such a material always exists.
func coveredMaterial(t *testing.T) (*materials.Course, *materials.Material) {
	t.Helper()
	for _, c := range Repository().Courses() {
		for _, m := range c.Materials {
			covered := true
			for _, tag := range m.Tags {
				dup := false
				for _, other := range c.Materials {
					if other.ID == m.ID {
						continue
					}
					for _, ot := range other.Tags {
						if ot == tag {
							dup = true
						}
					}
				}
				if !dup {
					covered = false
					break
				}
			}
			if covered && len(m.Tags) > 0 {
				return c, m
			}
		}
	}
	t.Fatal("no fully-covered material in seed corpus")
	return nil, nil
}

func TestApplyRetagProducesDelta(t *testing.T) {
	now := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	r := NewRegistry(func() time.Time { return now })
	course, mat := firstMaterial(t)
	base := r.Default()
	origTags := append([]string(nil), mat.Tags...)

	// Retag to a single known tag taken from another course so the tag
	// set genuinely changes.
	var newTag string
	for _, c := range Repository().Courses()[1:] {
		for _, m := range c.Materials {
			for _, tag := range m.Tags {
				if !course.TagSet()[tag] {
					newTag = tag
				}
			}
		}
	}
	if newTag == "" {
		t.Fatal("no out-of-course tag found")
	}

	snap, err := r.Apply(DefaultID, []Event{{
		Op: OpRetag, Course: course.ID, MaterialID: mat.ID, Tags: []string{newTag},
	}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if snap.Revision() != base.Revision()+1 {
		t.Errorf("revision = %d, want %d", snap.Revision(), base.Revision()+1)
	}

	d := snap.Delta()
	if d == nil {
		t.Fatal("delta-derived snapshot must carry a Delta")
	}
	if d.Events != 1 || d.Retagged != 1 || d.Added != 0 || d.Removed != 0 {
		t.Errorf("delta counts = %+v", d)
	}
	if len(d.Courses) != 1 || d.Courses[0] != course.ID {
		t.Errorf("delta.Courses = %v, want [%s]", d.Courses, course.ID)
	}
	wantGroup := strings.ToLower(string(course.Group))
	if !slices.Contains(d.Groups, wantGroup) {
		t.Errorf("delta.Groups = %v, want to include %q", d.Groups, wantGroup)
	}
	// The tag union must cover both the old and the new tags.
	tagSet := map[string]bool{}
	for _, tag := range d.Tags {
		tagSet[tag] = true
	}
	if !tagSet[newTag] {
		t.Errorf("delta.Tags %v missing new tag %q", d.Tags, newTag)
	}
	for _, tag := range origTags {
		if !tagSet[tag] {
			t.Errorf("delta.Tags %v missing old tag %q", d.Tags, tag)
		}
	}
	tc, ok := d.TagChanges[course.ID]
	if !ok {
		t.Fatal("tag-set-changing retag must record a TagChange")
	}
	if len(tc.Added) != 1 || tc.Added[0] != newTag {
		t.Errorf("TagChange.Added = %v, want [%s]", tc.Added, newTag)
	}

	// New snapshot observes the change; base snapshot stays immutable.
	if got := snap.Repo().Material(mat.ID); len(got.Tags) != 1 || got.Tags[0] != newTag {
		t.Errorf("new repo material tags = %v", got.Tags)
	}
	if got := base.Repo().Material(mat.ID); len(got.Tags) != len(origTags) {
		t.Errorf("base repo mutated: tags = %v, want %v", got.Tags, origTags)
	}
	if base.Delta() != nil {
		t.Error("full-ingest snapshot must not carry a delta")
	}
	// Untouched courses are structurally shared, not copied.
	other := Repository().Courses()[1]
	if snap.Repo().Course(other.ID) != base.Repo().Course(other.ID) {
		t.Error("untouched course should be shared by pointer across revisions")
	}
}

func TestApplyTagSetPreservingRetag(t *testing.T) {
	r := NewRegistry(nil)
	course, mat := coveredMaterial(t)
	base := r.Default()

	snap, err := r.Apply(DefaultID, []Event{{
		Op: OpRetag, Course: course.ID, MaterialID: mat.ID, Tags: mat.Tags[:1],
	}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	d := snap.Delta()
	if !slices.Contains(d.Courses, course.ID) {
		t.Error("course must still count as touched")
	}
	if tc, ok := d.TagChanges[course.ID]; ok {
		t.Errorf("tag-set-preserving retag recorded TagChange %+v", tc)
	}
	// Course tag sets match exactly across the revisions.
	oldSet := base.Repo().Course(course.ID).TagSet()
	newSet := snap.Repo().Course(course.ID).TagSet()
	if len(oldSet) != len(newSet) {
		t.Fatalf("tag set size changed %d -> %d", len(oldSet), len(newSet))
	}
	for tag := range oldSet {
		if !newSet[tag] {
			t.Errorf("tag %q lost", tag)
		}
	}
}

func TestApplyAddRemoveAndBatchMove(t *testing.T) {
	r := NewRegistry(nil)
	course, mat := firstMaterial(t)
	dest := Repository().Courses()[1]

	// Adding a material with a duplicate ID fails...
	dup := mat.Clone()
	_, err := r.Apply(DefaultID, []Event{{Op: OpAdd, Course: dest.ID, Material: dup}})
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate add error = %v", err)
	}
	// ...unless the same batch removed it first (a cross-course move).
	snap, err := r.Apply(DefaultID, []Event{
		{Op: OpRemove, Course: course.ID, MaterialID: mat.ID},
		{Op: OpAdd, Course: dest.ID, Material: dup},
	})
	if err != nil {
		t.Fatalf("move batch: %v", err)
	}
	d := snap.Delta()
	if d.Added != 1 || d.Removed != 1 || d.Events != 2 {
		t.Errorf("delta counts = %+v", d)
	}
	if len(d.Courses) != 2 {
		t.Errorf("delta.Courses = %v, want both courses", d.Courses)
	}
	if got := snap.Repo().Course(course.ID); got.TagSet()[mat.Tags[0]] && !courseHasOtherTagOwner(got, mat.ID, mat.Tags[0]) {
		t.Error("removed material's tags still attributed to source course")
	}
	found := false
	for _, m := range snap.Repo().Course(dest.ID).Materials {
		if m.ID == mat.ID {
			found = true
		}
	}
	if !found {
		t.Error("moved material missing from destination course")
	}
	if snap.Repo().NumMaterials() != Repository().NumMaterials() {
		t.Errorf("material count changed: %d vs %d", snap.Repo().NumMaterials(), Repository().NumMaterials())
	}
}

func courseHasOtherTagOwner(c *materials.Course, exceptID, tag string) bool {
	for _, m := range c.Materials {
		if m.ID == exceptID {
			continue
		}
		for _, t := range m.Tags {
			if t == tag {
				return true
			}
		}
	}
	return false
}

func TestApplyValidation(t *testing.T) {
	r := NewRegistry(nil)
	course, mat := firstMaterial(t)
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{"no events", nil, "no events"},
		{"unknown op", []Event{{Op: "rename", Course: course.ID}}, "unknown op"},
		{"missing course", []Event{{Op: OpRetag, MaterialID: mat.ID, Tags: []string{"x"}}}, "missing course"},
		{"unknown course", []Event{{Op: OpRemove, Course: "ghost", MaterialID: mat.ID}}, "unknown course"},
		{"unknown material", []Event{{Op: OpRetag, Course: course.ID, MaterialID: "ghost", Tags: []string{"x"}}}, "no material"},
		{"retag no tags", []Event{{Op: OpRetag, Course: course.ID, MaterialID: mat.ID}}, "non-empty tag list"},
		{"add no material", []Event{{Op: OpAdd, Course: course.ID}}, "needs a material"},
		{"add contradictory id", []Event{{Op: OpAdd, Course: course.ID, MaterialID: "a", Material: &materials.Material{ID: "b", Type: materials.Lecture, Tags: []string{"x"}}}}, "contradicts"},
		{"retag unknown tag", []Event{{Op: OpRetag, Course: course.ID, MaterialID: mat.ID, Tags: []string{"not-a-guideline-tag"}}}, "unknown curriculum tag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := r.Apply(DefaultID, tc.events); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Apply error = %v, want substring %q", err, tc.want)
			}
		})
	}

	if _, err := r.Apply("absent", []Event{{Op: OpRemove, Course: course.ID, MaterialID: mat.ID}}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Apply on absent dataset = %v, want ErrNotFound", err)
	}
	if _, err := r.Apply("NOT VALID", []Event{{Op: OpRemove, Course: course.ID, MaterialID: mat.ID}}); err == nil {
		t.Error("Apply with invalid ID must fail validation")
	}

	// Failed applies must not advance the revision.
	if rev := r.Default().Revision(); rev != 1 {
		t.Errorf("revision after failed applies = %d, want 1", rev)
	}
}

func TestApplyRevisionSequencing(t *testing.T) {
	r := NewRegistry(nil)
	course, mat := firstMaterial(t)
	ev := []Event{{Op: OpRetag, Course: course.ID, MaterialID: mat.ID, Tags: mat.Tags[:1]}}
	s2, err := r.Apply(DefaultID, ev)
	if err != nil {
		t.Fatal(err)
	}
	// A later full Put continues the sequence and clears the delta.
	s3, err := r.Put(DefaultID, miniCourses(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Revision() != 2 || s3.Revision() != 3 {
		t.Errorf("revisions = %d, %d, want 2, 3", s2.Revision(), s3.Revision())
	}
	if s3.Delta() != nil {
		t.Error("Put snapshot must not carry a delta")
	}
}

// scaledCourses returns n copies of the seed corpus, each course and
// material ID suffixed with its copy's number.
func scaledCourses(n int) []*materials.Course {
	var out []*materials.Course
	for k := 0; k < n; k++ {
		for _, c := range Courses() {
			cp := deepCopy(c)
			cp.ID = fmt.Sprintf("%s-x%d", c.ID, k)
			for _, m := range cp.Materials {
				m.ID = fmt.Sprintf("%s-x%d", m.ID, k)
			}
			out = append(out, cp)
		}
	}
	return out
}

// TestApplyCostFollowsDelta holds a one-retag Apply to one allocation
// count on the seed corpus and on a corpus four times its size: the
// untouched courses are shared, not revalidated, re-interned or
// re-indexed, so a PATCH costs in proportion to its delta. The count
// is bounded too: the tag-set diff merges the two revisions' tag rows
// and validation sizes its maps, where two TagSet maps and a
// per-call material-type set made it 46.
func TestApplyCostFollowsDelta(t *testing.T) {
	const maxAllocs = 30
	allocs := func(courses []*materials.Course) float64 {
		r := NewRegistry(nil)
		if _, err := r.Put("cost", courses); err != nil {
			t.Fatal(err)
		}
		c := courses[0]
		m := c.Materials[0]
		retag := []Event{{Op: OpRetag, Course: c.ID, MaterialID: m.ID, Tags: m.Tags}}
		return testing.AllocsPerRun(50, func() {
			if _, err := r.Apply("cost", retag); err != nil {
				t.Fatal(err)
			}
		})
	}
	seed, scaled := allocs(scaledCourses(1)), allocs(scaledCourses(4))
	if seed != scaled { // lint:exact — AllocsPerRun returns a whole count
		t.Errorf("a one-retag Apply makes %v allocations on the seed corpus and %v on four times it", seed, scaled)
	}
	if seed > maxAllocs {
		t.Errorf("a one-retag Apply makes %v allocations, want at most %d", seed, maxAllocs)
	}
}

// TestDerivedSnapshotConcurrentReads reads one derived snapshot from
// several goroutines while Apply derives the next revisions from it:
// the courses, tag rows, course order and vocabulary it shares with
// them and its lazily built material index must stand concurrent use.
func TestDerivedSnapshotConcurrentReads(t *testing.T) {
	r := NewRegistry(nil)
	course, mat := coveredMaterial(t)
	retag := Event{Op: OpRetag, Course: course.ID, MaterialID: mat.ID, Tags: mat.Tags}
	snap, err := r.Apply(DefaultID, []Event{retag})
	if err != nil {
		t.Fatal(err)
	}
	repo := snap.Repo()
	want := repo.NumMaterials()

	const readers, rounds = 4, 10
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				if n, got := repo.NumMaterials(), len(repo.Materials()); n != want || got != want {
					t.Errorf("NumMaterials %d, Materials %d, want %d", n, got, want)
					return
				}
				for _, c := range repo.Courses() {
					if n := len(c.TagSet()); n == 0 || len(repo.TagRow(c.ID)) != n {
						t.Errorf("course %q has %d tags and a row of %d", c.ID, n, len(repo.TagRow(c.ID)))
						return
					}
					for _, m := range c.Materials {
						if repo.Material(m.ID) != m {
							t.Errorf("Material(%q) is not course %q's material", m.ID, c.ID)
							return
						}
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			// An add makes ownerOf scan the shared courses; the next
			// round's remove takes it out again.
			added := &materials.Material{ID: fmt.Sprintf("%s/race%d", course.ID, i), Title: "t", Type: materials.Lab, Tags: mat.Tags}
			evs := []Event{retag, {Op: OpAdd, Course: course.ID, Material: added}}
			if i > 0 {
				evs = append(evs, Event{Op: OpRemove, Course: course.ID, MaterialID: fmt.Sprintf("%s/race%d", course.ID, i-1)})
			}
			if _, err := r.Apply(DefaultID, evs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
}
