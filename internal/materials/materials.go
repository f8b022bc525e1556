// Package materials implements the data model of the CS Materials system
// described in §3.1 of the paper: courses are collections of learning
// materials (lectures, assignments, labs, ...), and each material is
// classified against one or more curriculum guidelines by listing the IDs
// of the guideline entries it addresses.
//
// The package provides an in-memory repository with a material index,
// revisions that share their unchanged courses, JSON import/export,
// validation against the guideline trees, and the aggregation step
// every analysis starts from: interning each course's tags as integer
// ranks and turning a group of courses into a 0-1 course × curriculum
// matrix.
package materials

import (
	"fmt"
	"sort"
	"strings"
)

// MaterialType categorizes a learning material.
type MaterialType string

// Material types found in CS Materials.
const (
	Lecture    MaterialType = "lecture"
	Assignment MaterialType = "assignment"
	Lab        MaterialType = "lab"
	Exam       MaterialType = "exam"
	Quiz       MaterialType = "quiz"
	Activity   MaterialType = "activity"
	Reading    MaterialType = "reading"
	Project    MaterialType = "project"
)

// ValidTypes lists every recognized material type.
func ValidTypes() []MaterialType {
	return []MaterialType{Lecture, Assignment, Lab, Exam, Quiz, Activity, Reading, Project}
}

// validType maps each valid type to its constant, built once for
// Course.Validate and Sharer.
var validType = func() map[MaterialType]MaterialType {
	set := map[MaterialType]MaterialType{}
	for _, t := range ValidTypes() {
		set[t] = t
	}
	return set
}()

// CourseGroup is the coarse label assigned to courses by the paper's
// Figure 1 (based on the course name).
type CourseGroup string

// Course groups used by Figure 1.
const (
	GroupCS1     CourseGroup = "CS1"
	GroupOOP     CourseGroup = "OOP"
	GroupDS      CourseGroup = "DS"
	GroupAlgo    CourseGroup = "Algo"
	GroupSoftEng CourseGroup = "SoftEng"
	GroupPDC     CourseGroup = "PDC"
	GroupOther   CourseGroup = "Other"
)

// Material is one learning material classified against curriculum
// guidelines. Tags hold guideline node IDs (CS2013 and/or PDC12).
type Material struct {
	ID          string       `json:"id"`
	Title       string       `json:"title"`
	Type        MaterialType `json:"type"`
	Author      string       `json:"author,omitempty"`
	Language    string       `json:"language,omitempty"`
	CourseLevel string       `json:"course_level,omitempty"`
	Datasets    []string     `json:"datasets,omitempty"`
	Description string       `json:"description,omitempty"`
	Tags        []string     `json:"tags"`
}

// Clone returns a deep copy of the material.
func (m *Material) Clone() *Material {
	cp := *m
	cp.Datasets = append([]string(nil), m.Datasets...)
	cp.Tags = append([]string(nil), m.Tags...)
	return &cp
}

// TagSet returns the material's tags as a set.
func (m *Material) TagSet() map[string]bool {
	s := make(map[string]bool, len(m.Tags))
	for _, t := range m.Tags {
		s[t] = true
	}
	return s
}

// Course is a collection of materials taught at an institution.
type Course struct {
	ID          string      `json:"id"`
	Name        string      `json:"name"`
	Institution string      `json:"institution,omitempty"`
	Instructor  string      `json:"instructor,omitempty"`
	Group       CourseGroup `json:"group"`
	// SecondaryGroup covers Figure 1's dual-labeled courses (e.g. UCF's
	// COP3502 is both CS1 and DS).
	SecondaryGroup CourseGroup `json:"secondary_group,omitempty"`
	Materials      []*Material `json:"materials"`
}

// Clone returns a copy of the course with its own Materials slice. The
// Material pointers are shared with the original — callers mutating a
// material must Clone it first. This is the delta-ingest primitive: a
// revision derived by Repository.Derive holds a clone of each course an
// event touched, with clones of the materials it changed, and shares
// every other course and material with the previous revision.
func (c *Course) Clone() *Course {
	cp := *c
	cp.Materials = append([]*Material(nil), c.Materials...)
	return &cp
}

// HasGroup reports whether the course carries g as its primary or
// secondary group label.
func (c *Course) HasGroup(g CourseGroup) bool {
	return c.Group == g || c.SecondaryGroup == g
}

// Groups are the course groups the analyses select on: "all" holds
// every course, "cs1", "ds" and "pdc" the courses with that label,
// primary or secondary, and "dsalgo" the paper's DS ∪ Algo pool.
var Groups = []string{"all", "cs1", "ds", "dsalgo", "pdc"}

// InGroup reports whether the course belongs to the named group, one
// of Groups.
func (c *Course) InGroup(group string) bool {
	switch group {
	case "all":
		return true
	case "cs1":
		return c.HasGroup(GroupCS1)
	case "ds":
		return c.HasGroup(GroupDS)
	case "dsalgo":
		return c.HasGroup(GroupDS) || c.HasGroup(GroupAlgo)
	case "pdc":
		return c.HasGroup(GroupPDC)
	}
	return false
}

// TagSet returns the union of the tags of all the course's materials —
// the paper's representation of a course as a set of curriculum entries.
func (c *Course) TagSet() map[string]bool {
	s := map[string]bool{}
	for _, m := range c.Materials {
		for _, t := range m.Tags {
			s[t] = true
		}
	}
	return s
}

// SortedTags returns the course's tag set as a sorted slice.
func (c *Course) SortedTags() []string {
	set := c.TagSet()
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// TagCounts returns, for each tag, the number of the course's materials
// classified against it (used by the hit-tree node sizing).
func (c *Course) TagCounts() map[string]int {
	counts := map[string]int{}
	for _, m := range c.Materials {
		for _, t := range m.Tags {
			counts[t]++
		}
	}
	return counts
}

// Validate checks the course's internal consistency: non-empty ID/name,
// no null material, unique material IDs, recognized types, and
// non-empty tags.
func (c *Course) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("materials: course with empty ID (name %q)", c.Name)
	}
	if c.Name == "" {
		return fmt.Errorf("materials: course %q has empty name", c.ID)
	}
	seen := make(map[string]bool, len(c.Materials))
	for _, m := range c.Materials {
		if m == nil {
			return fmt.Errorf("materials: course %q has a null material", c.ID)
		}
		if m.ID == "" {
			return fmt.Errorf("materials: course %q has material with empty ID", c.ID)
		}
		if seen[m.ID] {
			return fmt.Errorf("materials: course %q has duplicate material ID %q", c.ID, m.ID)
		}
		seen[m.ID] = true
		if _, ok := validType[m.Type]; !ok {
			return fmt.Errorf("materials: material %q has unknown type %q", m.ID, m.Type)
		}
		for _, tag := range m.Tags {
			if strings.TrimSpace(tag) == "" {
				return fmt.Errorf("materials: material %q has an empty tag", m.ID)
			}
		}
	}
	return nil
}
