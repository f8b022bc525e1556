package materials

import (
	"slices"
	"testing"
)

// TestDigestCoversWhatAnalysesRead: changing what an analysis may read
// of a course (its ID, name, institution, instructor, either group
// label, its tag set or its position) changes the digest of a scope
// holding it, whether the repository is built by AddCourses or derived;
// a retag that keeps the course's tag set changes no digest.
func TestDigestCoversWhatAnalysesRead(t *testing.T) {
	courses := func() []*Course {
		a, b, c := testCourse("a"), testCourse("b"), testCourse("c")
		b.Group, b.SecondaryGroup = GroupDS, GroupAlgo
		b.Institution, b.Instructor = "Hanover", "Wahl"
		return []*Course{a, b, c}
	}
	build := func(cs []*Course) *Repository {
		t.Helper()
		r := newTestRepo(t)
		if err := r.AddCourses(cs...); err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := build(courses())
	all := Scope{Group: "all"}

	for _, tc := range []struct {
		name string
		edit func(b *Course)
	}{
		{"ID", func(b *Course) { b.ID = "b2" }},
		{"name", func(b *Course) { b.Name = "Renamed" }},
		{"institution", func(b *Course) { b.Institution = "Knox" }},
		{"instructor", func(b *Course) { b.Instructor = "Bunde" }},
		{"group label", func(b *Course) { b.Group = GroupPDC }},
		{"secondary group label", func(b *Course) { b.SecondaryGroup = "" }},
		{"tag set", func(b *Course) {
			m := b.Materials[0].Clone()
			m.Tags = []string{tagRecursion} // drops tagVars, which only this material covers
			b.Materials[0] = m
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := courses()
			tc.edit(cs[1])
			edited := build(cs)
			if edited.Digest(all) == base.Digest(all) {
				t.Error("the digest of all courses did not change")
			}
			if edited.Digest(Scope{Course: cs[1].ID}) == base.Digest(Scope{Course: "b"}) {
				t.Error("the course's own digest did not change")
			}
			if cs[1].ID != "b" {
				return // Derive replaces courses by ID
			}
			derived, err := base.Derive([]*Course{cs[1]})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range base.Scopes() {
				if derived.Digest(s) != edited.Digest(s) {
					t.Errorf("scope %+v: a derived repository digests differently from one built whole", s)
				}
			}
		})
	}

	t.Run("position", func(t *testing.T) {
		cs := courses()
		cs[0], cs[1] = cs[1], cs[0]
		if build(cs).Digest(all) == base.Digest(all) {
			t.Error("swapping two courses did not change the digest of all courses")
		}
	})

	t.Run("retag keeping the tag set", func(t *testing.T) {
		b := courses()[1]
		m := b.Materials[0].Clone()
		m.Tags = []string{tagVars, tagBigO} // tagRecursion stays covered by the second material
		b.Materials[0] = m
		derived, err := base.Derive([]*Course{b})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range base.Scopes() {
			if derived.Digest(s) != base.Digest(s) {
				t.Errorf("scope %+v: a retag that keeps the tag set changed the digest", s)
			}
		}
	})
}

// TestRestrictHoldsTheDigestedCourses: for every scope, Restrict holds
// exactly the courses Digest covers, in repository order, sharing their
// rows, so the digest of all of the restricted repository's courses is
// the scope's digest; and Digest allocates nothing.
func TestRestrictHoldsTheDigestedCourses(t *testing.T) {
	r := newTestRepo(t)
	a, b, c := testCourse("a"), testCourse("b"), testCourse("c")
	b.Group, b.SecondaryGroup = GroupDS, GroupAlgo
	c.Group = GroupPDC
	if err := r.AddCourses(a, b, c); err != nil {
		t.Fatal(err)
	}
	for _, s := range append(r.Scopes(), Scope{Course: "no-such-course"}) {
		sub := r.Restrict(s)
		var ids []string
		materials := 0
		for _, c := range r.Courses() {
			if (s.Course != "" && c.ID == s.Course) || (s.Course == "" && s.Group != "" && c.InGroup(s.Group)) {
				ids = append(ids, c.ID)
				materials += len(c.Materials)
			}
		}
		var got []string
		for _, c := range sub.Courses() {
			got = append(got, c.ID)
			if sub.Course(c.ID) != r.Course(c.ID) || &sub.TagRow(c.ID)[0] != &r.TagRow(c.ID)[0] {
				t.Errorf("scope %+v: course %s is not shared with the full repository", s, c.ID)
			}
		}
		if !slices.Equal(got, ids) || sub.NumMaterials() != materials {
			t.Errorf("scope %+v: Restrict holds %v (%d materials), want %v (%d)", s, got, sub.NumMaterials(), ids, materials)
		}
		if sub.Digest(Scope{Group: "all"}) != r.Digest(s) {
			t.Errorf("scope %+v: the restricted repository's courses digest differently from the scope", s)
		}
		if sub.Vocabulary() != r.Vocabulary() {
			t.Errorf("scope %+v: the restricted repository has its own vocabulary", s)
		}
	}
	if n := testing.AllocsPerRun(100, func() { r.Digest(Scope{Group: "all"}) }); n != 0 {
		t.Errorf("Digest makes %.0f allocations, want 0", n)
	}
}
