package dataset

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

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
// events to a small corpus. Apply must not panic, and must accept a
// batch exactly when referenceApply, a from-scratch build, accepts it.
// A rejected batch leaves the revision alone. An applied one matches
// the reference in every Repository accessor, the interned tag rows
// included, leaves the base snapshot's accessors as they were, shares
// the strings of the materials it copied from the events with the
// vocabulary and the type constants, and records, in TagChanges,
// exactly what a from-scratch diff of every course's TagSet() across
// the two snapshots finds.
func FuzzApplyEvents(f *testing.F) {
	courses := fuzzCourses(f)
	c0, c1, c2, c3 := courses[0], courses[1], courses[2], courses[3]
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
		// An add alone and a remove alone change the material count.
		eventsBody(f, Event{Op: OpAdd, Course: c1.ID, Material: newMat}),
		eventsBody(f, Event{Op: OpRemove, Course: c2.ID, MaterialID: c2.Materials[2].ID}),
		// An add and a remove of one ID, both orders; the second is a
		// move between two courses, as is the next.
		eventsBody(f, Event{Op: OpAdd, Course: c1.ID, Material: newMat}, Event{Op: OpRemove, Course: c1.ID, MaterialID: newMat.ID}),
		eventsBody(f, Event{Op: OpRemove, Course: c0.ID, MaterialID: m1.ID}, Event{Op: OpAdd, Course: c2.ID, Material: m1}),
		eventsBody(f, Event{Op: OpRemove, Course: c1.ID, MaterialID: c1.Materials[1].ID}, Event{Op: OpAdd, Course: c3.ID, Material: c1.Materials[1]}),
		// Rejected: an add of an ID an untouched course holds, one new
		// ID added to two courses, an add of a material of no known type.
		eventsBody(f, Event{Op: OpAdd, Course: c1.ID, Material: c2.Materials[1]}),
		eventsBody(f, Event{Op: OpAdd, Course: c1.ID, Material: newMat}, Event{Op: OpAdd, Course: c2.ID, Material: newMat}),
		eventsBody(f, Event{Op: OpAdd, Course: c1.ID, Material: &materials.Material{ID: c1.ID + "/typeless", Title: "t", Type: "banana", Tags: []string{otherTag}}}),
		// Rejected: an unknown course, an unknown material, empty tags,
		// an unknown tag, a blank tag.
		eventsBody(f, Event{Op: OpRetag, Course: "no-such-course", MaterialID: m0.ID, Tags: m0.Tags}),
		eventsBody(f, Event{Op: OpRemove, Course: c0.ID, MaterialID: c0.ID + "/nope"}),
		[]byte(`{"events":[{"op":"retag","course":"` + c0.ID + `","material_id":"` + m0.ID + `","tags":[]}]}`),
		eventsBody(f, Event{Op: OpRetag, Course: c0.ID, MaterialID: m0.ID, Tags: []string{"NOPE/not-a-tag"}}),
		eventsBody(f, Event{Op: OpRetag, Course: c0.ID, MaterialID: m0.ID, Tags: []string{" "}}),
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
		ids := materialIDs(base.Repo(), req.Events)
		before := viewOf(base.Repo(), ids)
		ref, refOK := referenceApply(base.Repo().Courses(), req.Events)
		snap, err := r.Apply("fuzz", req.Events)
		if after := viewOf(base.Repo(), ids); !reflect.DeepEqual(after, before) {
			t.Fatalf("Apply changed the base snapshot's accessors:\n%+v\nwant %+v", after, before)
		}
		if (err == nil) != refOK {
			t.Fatalf("Apply returned %v; the reference accepts the batch: %v", err, refOK)
		}
		if err != nil {
			if cur, _ := r.Get("fuzz"); cur != base {
				t.Fatalf("a rejected batch moved the dataset to revision %d: %v", cur.Revision(), err)
			}
			return
		}
		if snap.Revision() != base.Revision()+1 {
			t.Fatalf("revision %d after %d", snap.Revision(), base.Revision())
		}
		ids = append(ids, materialIDs(ref, nil)...)
		if got, want := viewOf(snap.Repo(), ids), viewOf(ref, ids); !reflect.DeepEqual(got, want) {
			t.Fatalf("applied repository:\n%+v\nfrom-scratch build:\n%+v", got, want)
		}
		// The materials this batch added or retagged, copied from the
		// events, share their strings.
		var copied []*materials.Material
		for _, m := range snap.Repo().Materials() {
			if base.Repo().Material(m.ID) != m {
				copied = append(copied, m)
			}
		}
		checkShared(t, snap.Repo().Vocabulary(), copied)
		want := map[string]TagChange{}
		for _, c := range snap.Repo().Courses() {
			if tc := diffSets(base.Repo().Course(c.ID).TagSet(), c.TagSet()); !tc.Empty() {
				want[c.ID] = tc
			}
		}
		if d := snap.Delta(); !reflect.DeepEqual(d.TagChanges, want) {
			t.Fatalf("TagChanges = %v, want %v", d.TagChanges, want)
		}
	})
}

// checkShared fails unless every tag of ms the vocabulary knows is the
// vocabulary's own string and every type its constant.
func checkShared(t *testing.T, v *materials.Vocabulary, ms []*materials.Material) {
	t.Helper()
	constant := map[materials.MaterialType]materials.MaterialType{}
	for _, mt := range materials.ValidTypes() {
		constant[mt] = mt
	}
	for _, m := range ms {
		for _, tag := range m.Tags {
			if rank, ok := v.Rank(tag); ok && unsafe.StringData(tag) != unsafe.StringData(v.Tag(rank)) {
				t.Fatalf("material %q holds its own copy of tag %q", m.ID, tag)
			}
		}
		if unsafe.StringData(string(m.Type)) != unsafe.StringData(string(constant[m.Type])) {
			t.Fatalf("material %q holds its own copy of type %q", m.ID, m.Type)
		}
	}
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

// referenceApply applies events by the rules applyEvents documents to
// deep copies of courses, then builds the result from scratch with Put.
// It reports false when the batch must be rejected.
func referenceApply(courses []*materials.Course, events []Event) (*materials.Repository, bool) {
	if len(events) == 0 {
		return nil, false
	}
	work := make([]*materials.Course, len(courses))
	for i, c := range courses {
		work[i] = deepCopy(c)
	}
	indexOf := func(c *materials.Course, id string) int {
		return slices.IndexFunc(c.Materials, func(m *materials.Material) bool { return m.ID == id })
	}
	for _, ev := range events {
		i := slices.IndexFunc(work, func(c *materials.Course) bool { return c.ID == ev.Course })
		if i < 0 {
			return nil, false
		}
		c := work[i]
		switch ev.Op {
		case OpAdd:
			if ev.Material == nil || (ev.MaterialID != "" && ev.MaterialID != ev.Material.ID) {
				return nil, false
			}
			for _, other := range work {
				if indexOf(other, ev.Material.ID) >= 0 {
					return nil, false
				}
			}
			c.Materials = append(c.Materials, ev.Material.Clone())
		case OpRemove:
			j := indexOf(c, ev.MaterialID)
			if ev.MaterialID == "" || j < 0 {
				return nil, false
			}
			c.Materials = slices.Delete(c.Materials, j, j+1)
		case OpRetag:
			j := indexOf(c, ev.MaterialID)
			if ev.MaterialID == "" || j < 0 || len(ev.Tags) == 0 {
				return nil, false
			}
			c.Materials[j].Tags = slices.Clone(ev.Tags)
		default:
			return nil, false
		}
	}
	snap, err := NewRegistry(nil).Put("reference", work)
	if err != nil {
		return nil, false
	}
	return snap.Repo(), true
}

// deepCopy copies a course and each of its materials.
func deepCopy(c *materials.Course) *materials.Course {
	cp := c.Clone()
	for i, m := range cp.Materials {
		cp.Materials[i] = m.Clone()
	}
	return cp
}

// repoView is what a repository's exported accessors report, held as
// values: materials and courses as JSON of deep copies (Clone leaves an
// empty slice nil, so nil and empty compare equal).
type repoView struct {
	Courses   []string                   // Courses(), in order
	Course    map[string]string          // Course(id) per listed course
	Groups    map[string][]string        // Restrict course IDs per group
	Material  map[string]string          // Material(id); "" for nil
	Materials []string                   // Materials(), in order
	Count     int                        // NumMaterials()
	TagSets   map[string]map[string]bool // each course's TagSet()
	Rows      map[string][]string        // each course's TagRow, as tags
}

// viewOf reads every accessor of r, looking each of ids up by Material.
func viewOf(r *materials.Repository, ids []string) repoView {
	canon := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	v := repoView{
		Course:   map[string]string{},
		Groups:   map[string][]string{},
		Material: map[string]string{},
		Count:    r.NumMaterials(),
		TagSets:  map[string]map[string]bool{},
		Rows:     map[string][]string{},
	}
	for _, c := range r.Courses() {
		v.Courses = append(v.Courses, canon(deepCopy(c)))
		v.Course[c.ID] = canon(deepCopy(r.Course(c.ID)))
		v.TagSets[c.ID] = c.TagSet()
		row := []string{}
		for _, rank := range r.TagRow(c.ID) {
			row = append(row, r.Vocabulary().Tag(rank))
		}
		v.Rows[c.ID] = row
	}
	for _, g := range materials.Groups {
		for _, c := range r.Restrict(materials.Scope{Group: g}).Courses() {
			v.Groups[g] = append(v.Groups[g], c.ID)
		}
	}
	for _, id := range ids {
		if m := r.Material(id); m != nil {
			v.Material[id] = canon(m.Clone())
		} else {
			v.Material[id] = ""
		}
	}
	for _, m := range r.Materials() {
		v.Materials = append(v.Materials, canon(m.Clone()))
	}
	return v
}

// materialIDs lists the IDs of r's materials and every material ID the
// events name.
func materialIDs(r *materials.Repository, events []Event) []string {
	var ids []string
	for _, m := range r.Materials() {
		ids = append(ids, m.ID)
	}
	for _, ev := range events {
		ids = append(ids, ev.MaterialID)
		if ev.Material != nil {
			ids = append(ids, ev.Material.ID)
		}
	}
	return ids
}
