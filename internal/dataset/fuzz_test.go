package dataset

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"csmaterials/internal/materials"
)

// fuzzCourses is a small corpus for FuzzApplyEvents: four seed courses
// spanning the CS1, DS, Algo and PDC labels (one dual-labelled), cut to
// their first four materials.
func fuzzCourses(t testing.TB) []*materials.Course {
	t.Helper()
	var out []*materials.Course
	for _, id := range []string{"ccc-csci40-kerney", "ucf-cop3502-ahmed", "hanover-cs225-wahl", "knox-cs309-bunde"} {
		c := Repository().Course(id)
		if c == nil {
			t.Fatalf("seed corpus has no course %q", id)
		}
		c = c.Clone()
		c.Materials = c.Materials[:4]
		out = append(out, c)
	}
	return out
}

// eventsBody renders events as a PATCH body.
func eventsBody(t testing.TB, evs ...Event) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Events []Event `json:"events"`
	}{evs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzApplyEvents decodes its input as a PATCH body and applies the
// events to a small corpus. Apply must not panic; a rejected batch
// leaves the revision alone; an applied one records, in TagChanges and
// ChangedGroups, exactly what a from-scratch diff of every course's
// TagSet() across the two snapshots finds.
func FuzzApplyEvents(f *testing.F) {
	courses := fuzzCourses(f)
	c0, c1, c2 := courses[0], courses[1], courses[2]
	m0, m1 := c0.Materials[0], c0.Materials[1]
	otherTag := c2.Materials[0].Tags[0]
	newMat := &materials.Material{ID: c1.ID + "/fuzz", Title: "t", Type: materials.Lab, Tags: []string{otherTag}}
	for _, seed := range [][]byte{
		// Keeps the tag set: a retag to the material's own tags.
		eventsBody(f, Event{Op: OpRetag, Course: c0.ID, MaterialID: m0.ID, Tags: m0.Tags}),
		// Changes it: a retag to another course's tag, on a CS1 course
		// and on the dual-labelled CS1+DS one.
		eventsBody(f, Event{Op: OpRetag, Course: c0.ID, MaterialID: m1.ID, Tags: []string{otherTag}}),
		eventsBody(f, Event{Op: OpRetag, Course: c1.ID, MaterialID: c1.Materials[0].ID, Tags: []string{otherTag}}),
		// A retag and its undo cancel out.
		eventsBody(f,
			Event{Op: OpRetag, Course: c0.ID, MaterialID: m0.ID, Tags: []string{otherTag}},
			Event{Op: OpRetag, Course: c0.ID, MaterialID: m0.ID, Tags: m0.Tags}),
		// An add and a remove of one ID, both orders.
		eventsBody(f, Event{Op: OpAdd, Course: c1.ID, Material: newMat}, Event{Op: OpRemove, Course: c1.ID, MaterialID: newMat.ID}),
		eventsBody(f, Event{Op: OpRemove, Course: c0.ID, MaterialID: m1.ID}, Event{Op: OpAdd, Course: c2.ID, Material: m1}),
		// Rejected: an unknown course, an unknown material, empty tags.
		eventsBody(f, Event{Op: OpRetag, Course: "no-such-course", MaterialID: m0.ID, Tags: m0.Tags}),
		eventsBody(f, Event{Op: OpRemove, Course: c0.ID, MaterialID: c0.ID + "/nope"}),
		[]byte(`{"events":[{"op":"retag","course":"` + c0.ID + `","material_id":"` + m0.ID + `","tags":[]}]}`),
		[]byte(`{"events":[]}`),
		[]byte(`not json`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req struct {
			Events []Event `json:"events"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		r := NewRegistry(nil)
		base, err := r.Put("fuzz", fuzzCourses(t))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := r.Apply("fuzz", req.Events)
		if err != nil {
			if cur, _ := r.Get("fuzz"); cur != base {
				t.Fatalf("a rejected batch moved the dataset to revision %d: %v", cur.Revision(), err)
			}
			return
		}
		if snap.Revision() != base.Revision()+1 {
			t.Fatalf("revision %d after %d", snap.Revision(), base.Revision())
		}
		want := map[string]TagChange{}
		groups := map[string]bool{}
		for _, c := range snap.Repo().Courses() {
			tc := diffSets(base.Repo().Course(c.ID).TagSet(), c.TagSet())
			if tc.Empty() {
				continue
			}
			want[c.ID] = tc
			for _, g := range []materials.CourseGroup{c.Group, c.SecondaryGroup} {
				if g != "" {
					groups[strings.ToLower(string(g))] = true
				}
			}
		}
		d := snap.Delta()
		if !reflect.DeepEqual(d.TagChanges, want) {
			t.Fatalf("TagChanges = %v, want %v", d.TagChanges, want)
		}
		wantGroups := make([]string, 0, len(groups))
		for g := range groups {
			wantGroups = append(wantGroups, g)
		}
		sort.Strings(wantGroups)
		if !reflect.DeepEqual(append([]string{}, d.ChangedGroups...), wantGroups) {
			t.Fatalf("ChangedGroups = %v, want %v", d.ChangedGroups, wantGroups)
		}
	})
}

// diffSets is the reference tag-set difference: sorted tags only in
// next (Added) and only in prev (Removed).
func diffSets(prev, next map[string]bool) TagChange {
	var tc TagChange
	for t := range next {
		if !prev[t] {
			tc.Added = append(tc.Added, t)
		}
	}
	for t := range prev {
		if !next[t] {
			tc.Removed = append(tc.Removed, t)
		}
	}
	sort.Strings(tc.Added)
	sort.Strings(tc.Removed)
	return tc
}
