package materials

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"

	"csmaterials/internal/matrix"
	"csmaterials/internal/ontology"
)

// Repository is the in-memory CS Materials store: courses and their
// materials, every classification validated against the guidelines it
// was created with. AddCourse builds a repository; once it is read, it
// does not change, and a new revision is derived by Derive, which
// shares every course it does not replace (and the course order and
// guidelines) with its parent. The by-ID material index is built on
// first use, so a revision nobody looks a material up in never pays for
// it.
type Repository struct {
	guidelines []*ontology.Guideline
	courses    map[string]*Course
	order      []string // course insertion order, for deterministic listings
	nMaterials int

	indexOnce  sync.Once
	byMaterial map[string]*Material // built by index on first use
}

// NewRepository creates an empty repository validating against the given
// guidelines (typically CS2013 and PDC12).
func NewRepository(guidelines ...*ontology.Guideline) *Repository {
	if len(guidelines) == 0 {
		panic("materials: NewRepository needs at least one guideline")
	}
	return &Repository{guidelines: guidelines, courses: map[string]*Course{}}
}

// KnownTag reports whether id exists in any of the repository's
// guidelines.
func (r *Repository) KnownTag(id string) bool {
	for _, g := range r.guidelines {
		if g.Lookup(id) != nil {
			return true
		}
	}
	return false
}

// LookupTag returns the guideline node for id, searching all guidelines.
func (r *Repository) LookupTag(id string) *ontology.Node {
	for _, g := range r.guidelines {
		if n := g.Lookup(id); n != nil {
			return n
		}
	}
	return nil
}

// checkTags reports the first of m's tags no guideline knows.
func (r *Repository) checkTags(m *Material) error {
	for _, tag := range m.Tags {
		if !r.KnownTag(tag) {
			return fmt.Errorf("materials: material %q references unknown curriculum tag %q", m.ID, tag)
		}
	}
	return nil
}

// AddCourse validates and stores a course. Every material tag must exist
// in one of the repository's guidelines; material IDs must be globally
// unique. It is for building a repository, not for one already being
// read.
func (r *Repository) AddCourse(c *Course) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if _, dup := r.courses[c.ID]; dup {
		return fmt.Errorf("materials: duplicate course ID %q", c.ID)
	}
	byID := r.index()
	for _, m := range c.Materials {
		if _, dup := byID[m.ID]; dup {
			return fmt.Errorf("materials: material ID %q already exists in another course", m.ID)
		}
		if err := r.checkTags(m); err != nil {
			return err
		}
	}
	r.courses[c.ID] = c
	r.order = append(r.order, c.ID)
	r.nMaterials += len(c.Materials)
	for _, m := range c.Materials {
		byID[m.ID] = m
	}
	return nil
}

// Derive returns a copy of the repository in which each course of
// changed replaces the stored course with the same ID. Each replacement
// is validated as AddCourse validates a course, except that material
// IDs are not checked across courses: a replacement must not bring in
// an ID another course holds, and the caller, which knows which IDs
// are new, checks that. Every other course, the course order and the
// guidelines are shared with r, which stays as it was; the copy's
// material index is built on first use. The cost is in proportion to
// the replacements and the number of courses, not to the materials
// left alone.
func (r *Repository) Derive(changed []*Course) (*Repository, error) {
	courses := maps.Clone(r.courses)
	n := r.nMaterials
	for _, c := range changed {
		prev, ok := courses[c.ID]
		if !ok {
			return nil, fmt.Errorf("materials: no course %q to replace", c.ID)
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
		for _, m := range c.Materials {
			if err := r.checkTags(m); err != nil {
				return nil, err
			}
		}
		courses[c.ID] = c
		n += len(c.Materials) - len(prev.Materials)
	}
	// Clipped, so an AddCourse on the copy reallocates rather than
	// writing into r's array.
	order := slices.Clip(r.order)
	return &Repository{guidelines: r.guidelines, courses: courses, order: order, nMaterials: n}, nil
}

// index returns the by-ID material index, building it from the courses
// on first use.
func (r *Repository) index() map[string]*Material {
	r.indexOnce.Do(func() {
		r.byMaterial = make(map[string]*Material, r.nMaterials)
		for _, id := range r.order {
			for _, m := range r.courses[id].Materials {
				r.byMaterial[m.ID] = m
			}
		}
	})
	return r.byMaterial
}

// Course returns the course with the given ID, or nil.
func (r *Repository) Course(id string) *Course { return r.courses[id] }

// Courses returns all courses in insertion order.
func (r *Repository) Courses() []*Course {
	out := make([]*Course, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.courses[id])
	}
	return out
}

// CoursesInGroup returns the courses whose primary or secondary group is
// g, in insertion order.
func (r *Repository) CoursesInGroup(g CourseGroup) []*Course {
	var out []*Course
	for _, c := range r.Courses() {
		if c.HasGroup(g) {
			out = append(out, c)
		}
	}
	return out
}

// Material returns the material with the given ID, or nil.
func (r *Repository) Material(id string) *Material { return r.index()[id] }

// Materials returns every material sorted by ID.
func (r *Repository) Materials() []*Material {
	out := make([]*Material, 0, r.nMaterials)
	for _, id := range r.order {
		out = append(out, r.courses[id].Materials...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumMaterials returns the total number of materials.
func (r *Repository) NumMaterials() int { return r.nMaterials }

// CourseMatrix builds the paper's analysis input: a 0-1 matrix A with one
// row per given course and one column per curriculum tag that appears in
// at least one of them. It returns the matrix together with the column
// tag IDs (sorted) so entries can be interpreted.
func CourseMatrix(courses []*Course) (*matrix.Dense, []string) {
	if len(courses) == 0 {
		panic("materials: CourseMatrix with no courses")
	}
	universe := map[string]bool{}
	sets := make([]map[string]bool, len(courses))
	for i, c := range courses {
		sets[i] = c.TagSet()
		for t := range sets[i] {
			universe[t] = true
		}
	}
	cols := make([]string, 0, len(universe))
	for t := range universe {
		cols = append(cols, t)
	}
	sort.Strings(cols)
	colIdx := make(map[string]int, len(cols))
	for j, t := range cols {
		colIdx[t] = j
	}
	a := matrix.New(len(courses), len(cols))
	for i := range courses {
		for t := range sets[i] {
			a.Set(i, colIdx[t], 1)
		}
	}
	return a, cols
}

// SaveJSON writes the repository's courses as a JSON document.
func (r *Repository) SaveJSON(w io.Writer) error {
	doc := struct {
		Courses []*Course `json:"courses"`
	}{Courses: r.Courses()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// LoadJSON reads courses from a JSON document produced by SaveJSON and
// adds them to the repository, validating each.
func (r *Repository) LoadJSON(rd io.Reader) error {
	var doc struct {
		Courses []*Course `json:"courses"`
	}
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return fmt.Errorf("materials: decoding JSON: %w", err)
	}
	for _, c := range doc.Courses {
		if err := r.AddCourse(c); err != nil {
			return err
		}
	}
	return nil
}
