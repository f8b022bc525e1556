package dataset

import (
	"fmt"
	"sort"
	"strings"

	"csmaterials/internal/materials"
)

// Op names a classification event kind.
type Op string

// Classification-event operations: the three ways a live corpus
// changes between revisions without a full re-ingest.
const (
	// OpAdd attaches a new material to an existing course.
	OpAdd Op = "add"
	// OpRemove detaches a material from its course.
	OpRemove Op = "remove"
	// OpRetag replaces a material's curriculum tags.
	OpRetag Op = "retag"
)

// Event is one classification event against a dataset: a material
// added to, removed from, or retagged within an existing course. It is
// the PATCH /api/v1/datasets/{id} payload item and the input to
// Registry.Apply.
type Event struct {
	Op     Op     `json:"op"`
	Course string `json:"course"`
	// Material carries the full new material for OpAdd.
	Material *materials.Material `json:"material,omitempty"`
	// MaterialID names the target of OpRemove and OpRetag.
	MaterialID string `json:"material_id,omitempty"`
	// Tags is the replacement tag list for OpRetag.
	Tags []string `json:"tags,omitempty"`
}

// TagChange is one course's tag-SET difference across a delta: the
// tags that entered and left the union of the course's material tags.
// A retag that only touches tags the course already covers through
// other materials produces an empty TagChange even though the material
// itself changed.
type TagChange struct {
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
}

// Empty reports whether the course's tag set was unchanged.
func (tc TagChange) Empty() bool { return len(tc.Added) == 0 && len(tc.Removed) == 0 }

// Delta summarizes what one Apply changed, revision N-1 → N. It rides
// on the new Snapshot, and a PATCH response reports it.
type Delta struct {
	// Events is the number of events applied.
	Events int `json:"events"`
	// Added, Removed, and Retagged count events by operation.
	Added    int `json:"added"`
	Removed  int `json:"removed"`
	Retagged int `json:"retagged"`
	// Courses lists the touched course IDs, sorted.
	Courses []string `json:"courses"`
	// Tags is the sorted union of every tag named by a touched
	// material, before or after the delta.
	Tags []string `json:"tags"`
	// Groups is the sorted, lowercased union of the group labels
	// (primary and secondary) of the touched courses — the coarse
	// signal group-scoped analyses use to decide whether a delta can
	// reach them.
	Groups []string `json:"groups"`
	// TagChanges maps each touched course to its tag-set difference
	// (absent or empty when the course's tag union was unchanged).
	// It is carried in memory for callers that tell an edit that changes
	// a tag set from one that keeps it, not exported in API summaries.
	TagChanges map[string]TagChange `json:"-"`
}

// validateEvent checks an event's shape before application.
func validateEvent(i int, ev Event) error {
	if ev.Course == "" {
		return fmt.Errorf("dataset: event %d: missing course", i)
	}
	switch ev.Op {
	case OpAdd:
		if ev.Material == nil {
			return fmt.Errorf("dataset: event %d: %q needs a material", i, OpAdd)
		}
		if ev.MaterialID != "" && ev.MaterialID != ev.Material.ID {
			return fmt.Errorf("dataset: event %d: material_id %q contradicts material.id %q", i, ev.MaterialID, ev.Material.ID)
		}
	case OpRemove:
		if ev.MaterialID == "" {
			return fmt.Errorf("dataset: event %d: %q needs material_id", i, OpRemove)
		}
	case OpRetag:
		if ev.MaterialID == "" {
			return fmt.Errorf("dataset: event %d: %q needs material_id", i, OpRetag)
		}
		if len(ev.Tags) == 0 {
			return fmt.Errorf("dataset: event %d: %q needs a non-empty tag list", i, OpRetag)
		}
	default:
		return fmt.Errorf("dataset: event %d: unknown op %q", i, ev.Op)
	}
	return nil
}

// applyEvents derives a new repository from base by applying events,
// doing work in proportion to the courses the events touch. Each
// touched course is cloned (and each material an event changes is
// cloned) so the base snapshot stays immutable; the new repository is
// base.Derive of the clones, which validates them as a full ingest
// would and shares every untouched course with base, neither validated
// nor indexed again. The new repository's material index is built only
// if something looks a material up. Events apply in order against the
// batch's working state: an add must name a material ID no course
// holds at that point, so a batch may move a material by removing it
// first; a remove or a retag must name a material of its course. The
// materials and tag lists it copies from events share their strings
// (materials.Sharer), so an edit keeps no copy of a tag the
// vocabulary holds.
func applyEvents(base *materials.Repository, events []Event) (*materials.Repository, *Delta, error) {
	touched := map[string]*materials.Course{} // course ID → working clone
	delta := &Delta{Events: len(events), TagChanges: map[string]TagChange{}}
	tags := map[string]bool{}
	share := base.Vocabulary().NewSharer() // for the materials and tags copied from events

	courseOf := func(id string) (*materials.Course, error) {
		if c, ok := touched[id]; ok {
			return c, nil
		}
		orig := base.Course(id)
		if orig == nil {
			return nil, fmt.Errorf("dataset: unknown course %q", id)
		}
		c := orig.Clone()
		touched[id] = c
		return c, nil
	}
	findMaterial := func(c *materials.Course, id string) int {
		for i, m := range c.Materials {
			if m.ID == id {
				return i
			}
		}
		return -1
	}

	for i, ev := range events {
		if err := validateEvent(i, ev); err != nil {
			return nil, nil, err
		}
		c, err := courseOf(ev.Course)
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: event %d: %w", i, err)
		}
		switch ev.Op {
		case OpAdd:
			m := ev.Material.Clone()
			share.Material(m)
			// Global material-ID uniqueness, honoring in-batch removals:
			// the ID may have left the corpus earlier in this same batch.
			if owner := ownerOf(base, touched, m.ID); owner != "" {
				return nil, nil, fmt.Errorf("dataset: event %d: material ID %q already exists in course %q", i, m.ID, owner)
			}
			c.Materials = append(c.Materials, m)
			delta.Added++
			for _, t := range m.Tags {
				tags[t] = true
			}
		case OpRemove:
			idx := findMaterial(c, ev.MaterialID)
			if idx < 0 {
				return nil, nil, fmt.Errorf("dataset: event %d: course %q has no material %q", i, ev.Course, ev.MaterialID)
			}
			for _, t := range c.Materials[idx].Tags {
				tags[t] = true
			}
			c.Materials = append(c.Materials[:idx], c.Materials[idx+1:]...)
			delta.Removed++
		case OpRetag:
			idx := findMaterial(c, ev.MaterialID)
			if idx < 0 {
				return nil, nil, fmt.Errorf("dataset: event %d: course %q has no material %q", i, ev.Course, ev.MaterialID)
			}
			m := c.Materials[idx].Clone()
			for _, t := range m.Tags {
				tags[t] = true
			}
			m.Tags = append([]string(nil), ev.Tags...)
			share.Tags(m.Tags)
			for _, t := range m.Tags {
				tags[t] = true
			}
			c.Materials[idx] = m
			delta.Retagged++
		}
	}

	// Derive the repository: the touched clones go through full
	// validation (their new materials and tags are unproven), in base
	// course order so the first error is the one a full ingest reports.
	clones := make([]*materials.Course, 0, len(touched))
	for _, orig := range base.Courses() {
		if mod, ok := touched[orig.ID]; ok {
			clones = append(clones, mod)
		}
	}
	repo, err := base.Derive(clones)
	if err != nil {
		return nil, nil, err
	}

	// Summarize: touched courses, their group labels, the tag union,
	// and the per-course tag-set differences old → new, read from the
	// two revisions' interned tag rows.
	groups := map[string]bool{}
	for id, mod := range touched {
		delta.Courses = append(delta.Courses, id)
		if tc := diffRows(repo.Vocabulary(), base.TagRow(id), repo.TagRow(id)); !tc.Empty() {
			delta.TagChanges[id] = tc
		}
		for _, label := range []materials.CourseGroup{mod.Group, mod.SecondaryGroup} {
			if g := strings.ToLower(string(label)); g != "" {
				groups[g] = true
			}
		}
	}
	sort.Strings(delta.Courses)
	delta.Tags = sortedKeys(tags)
	delta.Groups = sortedKeys(groups)
	return repo, delta, nil
}

// ownerOf reports which course currently holds a material ID, honoring
// in-batch removals and additions: the working clones in touched
// shadow their base counterparts. It scans the courses rather than
// calling base.Material, whose index is built on first use: building
// it here would cost a whole-corpus index on every batch that adds a
// material, where the scan costs a string compare per material.
func ownerOf(base *materials.Repository, touched map[string]*materials.Course, materialID string) string {
	for _, c := range base.Courses() {
		if mod, ok := touched[c.ID]; ok {
			c = mod
		}
		for _, m := range c.Materials {
			if m.ID == materialID {
				return c.ID
			}
		}
	}
	return ""
}

// diffRows computes the set difference new − old (Added) and old − new
// (Removed) of two ascending tag rows by merging them. Ranks order as
// their tags sort, so both lists come out sorted.
func diffRows(v *materials.Vocabulary, old, new []int32) TagChange {
	var tc TagChange
	i, j := 0, 0
	for i < len(old) || j < len(new) {
		switch {
		case j == len(new) || i < len(old) && old[i] < new[j]:
			tc.Removed = append(tc.Removed, v.Tag(old[i]))
			i++
		case i == len(old) || new[j] < old[i]:
			tc.Added = append(tc.Added, v.Tag(new[j]))
			j++
		default:
			i++
			j++
		}
	}
	return tc
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
