package materials

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"

	"csmaterials/internal/ontology"
)

// Repository is the in-memory CS Materials store: courses and their
// materials, every classification validated against the guidelines it
// was created with. AddCourses builds a repository; once it is read, it
// does not change, and a new revision is derived by Derive, which
// shares every course it does not replace (and the course order and
// vocabulary) with its parent. However a repository was built, its
// by-ID material index is built on the first lookup, so one nobody
// looks a material up in never pays for it.
//
// Validation interns each course's tags: the repository keeps, per
// course, its distinct tags as ascending ranks into the vocabulary of
// its guidelines, which every repository over the same guidelines
// shares. Group hands those rows to the group analyses. With the row it
// keeps the course's digest, from which Digest names the input of an
// answer, and Restrict hands an analysis exactly that input.
type Repository struct {
	vocab      *Vocabulary
	courses    map[string]stored
	order      []string // course insertion order, for deterministic listings
	nMaterials int

	indexOnce  sync.Once
	byMaterial map[string]*Material // built by index on first use
}

// stored is one course with its interned tag row and its digest.
type stored struct {
	course *Course
	row    []int32
	digest Digest
}

// Digest is a SHA-256 truncated to 128 bits.
type Digest [16]byte

// store returns c with its row and the digest of what any analysis
// reads of it: its ID, name, institution, instructor, both group labels
// and its tag row, whose ranks index the vocabulary every repository
// over the same guidelines shares. No material field enters, so a retag
// that keeps the course's tag set keeps its digest. Each string is
// length-prefixed, so two different courses never hash the same bytes.
func store(c *Course, row []int32) stored {
	b := make([]byte, 0, 128+4*len(row))
	for _, f := range []string{c.ID, c.Name, c.Institution, c.Instructor, string(c.Group), string(c.SecondaryGroup)} {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
	}
	for _, rank := range row {
		b = binary.LittleEndian.AppendUint32(b, uint32(rank))
	}
	sum := sha256.Sum256(b)
	return stored{course: c, row: row, digest: Digest(sum[:len(Digest{})])}
}

// NewRepository creates an empty repository validating against the given
// guidelines (typically CS2013 and PDC12).
func NewRepository(guidelines ...*ontology.Guideline) *Repository {
	if len(guidelines) == 0 {
		panic("materials: NewRepository needs at least one guideline")
	}
	return &Repository{vocab: VocabularyOf(guidelines...), courses: map[string]stored{}}
}

// intern returns c's tag row: its distinct tags as ascending ranks
// into the vocabulary. Material by material, it first runs check, when
// given, then reports the first tag no guideline knows.
func (r *Repository) intern(c *Course, check func(*Material) error) ([]int32, error) {
	n := 0
	for _, m := range c.Materials {
		n += len(m.Tags)
	}
	row := make([]int32, 0, n)
	for _, m := range c.Materials {
		if check != nil {
			if err := check(m); err != nil {
				return nil, err
			}
		}
		for _, tag := range m.Tags {
			rank, ok := r.vocab.Rank(tag)
			if !ok {
				return nil, fmt.Errorf("materials: material %q references unknown curriculum tag %q", m.ID, tag)
			}
			row = append(row, rank)
		}
	}
	return internRow(row), nil
}

// AddCourses validates and stores courses in order. Every material tag
// must exist in one of the repository's guidelines, and material IDs
// must be unique across the repository. The first course that breaks a
// rule is not stored, nor any after it. IDs are checked against a set
// that lives for the call, so building a repository leaves no by-ID
// material index: it is built on the first lookup. It is for building
// a repository, not for one already being read, and it does not write
// into the courses.
func (r *Repository) AddCourses(cs ...*Course) error {
	n := r.nMaterials
	for _, c := range cs {
		if c != nil {
			n += len(c.Materials)
		}
	}
	ids := make(map[string]struct{}, n)
	for _, id := range r.order {
		for _, m := range r.courses[id].course.Materials {
			ids[m.ID] = struct{}{}
		}
	}
	for _, c := range cs {
		if err := r.add(c, ids); err != nil {
			return err
		}
	}
	return nil
}

// add validates and stores c, checking its material IDs against ids,
// the IDs of the courses stored so far, and adding its own.
func (r *Repository) add(c *Course, ids map[string]struct{}) error {
	if c == nil {
		return fmt.Errorf("materials: null course")
	}
	if err := c.Validate(); err != nil {
		return err
	}
	if _, dup := r.courses[c.ID]; dup {
		return fmt.Errorf("materials: duplicate course ID %q", c.ID)
	}
	row, err := r.intern(c, func(m *Material) error {
		if _, dup := ids[m.ID]; dup {
			return fmt.Errorf("materials: material ID %q already exists in another course", m.ID)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.courses[c.ID] = store(c, row)
	r.order = append(r.order, c.ID)
	r.nMaterials += len(c.Materials)
	for _, m := range c.Materials {
		ids[m.ID] = struct{}{}
		if r.byMaterial != nil { // a lookup already built the index
			r.byMaterial[m.ID] = m
		}
	}
	return nil
}

// Derive returns a copy of the repository in which each course of
// changed replaces the stored course with the same ID. Each replacement
// is validated as AddCourses validates a course, except that material
// IDs are not checked across courses: a replacement must not bring in
// an ID another course holds, and the caller, which knows which IDs
// are new, checks that. Every other course with its interned tag row
// and digest, the course order and the vocabulary are shared with r,
// which stays as it was; only the replacements are interned, and the
// copy's material index is built on first use. The cost is in
// proportion to the replacements and the number of courses, not to the
// materials left alone.
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
		row, err := r.intern(c, nil)
		if err != nil {
			return nil, err
		}
		courses[c.ID] = store(c, row)
		n += len(c.Materials) - len(prev.course.Materials)
	}
	// Clipped, so an AddCourses on the copy reallocates rather than
	// writing into r's array.
	order := slices.Clip(r.order)
	return &Repository{vocab: r.vocab, courses: courses, order: order, nMaterials: n}, nil
}

// index returns the by-ID material index, building it from the courses
// on first use.
func (r *Repository) index() map[string]*Material {
	r.indexOnce.Do(func() {
		r.byMaterial = make(map[string]*Material, r.nMaterials)
		for _, id := range r.order {
			for _, m := range r.courses[id].course.Materials {
				r.byMaterial[m.ID] = m
			}
		}
	})
	return r.byMaterial
}

// Course returns the course with the given ID, or nil.
func (r *Repository) Course(id string) *Course { return r.courses[id].course }

// Courses returns all courses in insertion order.
func (r *Repository) Courses() []*Course {
	out := make([]*Course, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.courses[id].course)
	}
	return out
}

// Vocabulary returns the vocabulary the repository's tag rows rank
// into: every entry ID of its guidelines.
func (r *Repository) Vocabulary() *Vocabulary { return r.vocab }

// TagRow returns the distinct tags of the course with the given ID as
// ascending ranks into Vocabulary, or nil for an unknown course. The
// row is shared and must not be modified.
func (r *Repository) TagRow(id string) []int32 { return r.courses[id].row }

// Group returns the courses with the given IDs, in order and skipping
// unknown IDs, with their stored tag rows.
func (r *Repository) Group(ids []string) *Group {
	g := &Group{Courses: make([]*Course, 0, len(ids)), Rows: make([][]int32, 0, len(ids)), Vocab: r.vocab}
	for _, id := range ids {
		if s, ok := r.courses[id]; ok {
			g.Courses = append(g.Courses, s.course)
			g.Rows = append(g.Rows, s.row)
		}
	}
	return g
}

// A Scope names the courses of a repository an answer reads: the
// members of a group (one of Groups), one course by ID, or, as the zero
// Scope, none.
type Scope struct {
	Group  string
	Course string
}

// Digest returns the digest of the scope's courses, in repository
// order: the SHA-256 of their digests, truncated to 128 bits. A scope
// whose one course the repository lacks holds no course.
func (r *Repository) Digest(s Scope) Digest {
	// Every read keys its answer by a digest, so a scope of up to 32
	// courses is hashed from the stack, allocating nothing.
	var stack [32 * len(Digest{})]byte
	b := stack[:0]
	r.walk(s, func(st stored) { b = append(b, st.digest[:]...) })
	sum := sha256.Sum256(b)
	return Digest(sum[:len(Digest{})])
}

// Restrict returns a repository holding only the courses Digest(s)
// covers, in repository order, sharing their rows, digests and the
// vocabulary with r: the input of an answer keyed by that digest.
func (r *Repository) Restrict(s Scope) *Repository {
	out := &Repository{vocab: r.vocab, courses: map[string]stored{}}
	r.walk(s, func(st stored) {
		out.courses[st.course.ID] = st
		out.order = append(out.order, st.course.ID)
		out.nMaterials += len(st.course.Materials)
	})
	return out
}

// walk visits the scope's courses in repository order: the one
// membership rule of a scope.
func (r *Repository) walk(s Scope, visit func(stored)) {
	switch {
	case s.Course != "":
		if st, ok := r.courses[s.Course]; ok {
			visit(st)
		}
	case s.Group != "":
		for _, id := range r.order {
			if st := r.courses[id]; st.course.InGroup(s.Group) {
				visit(st)
			}
		}
	}
}

// Scopes returns every scope of the repository: none, each of Groups
// and each course.
func (r *Repository) Scopes() []Scope {
	out := make([]Scope, 0, 1+len(Groups)+len(r.order))
	out = append(out, Scope{})
	for _, g := range Groups {
		out = append(out, Scope{Group: g})
	}
	for _, id := range r.order {
		out = append(out, Scope{Course: id})
	}
	return out
}

// Material returns the material with the given ID, or nil.
func (r *Repository) Material(id string) *Material { return r.index()[id] }

// Materials returns every material sorted by ID.
func (r *Repository) Materials() []*Material {
	out := make([]*Material, 0, r.nMaterials)
	for _, id := range r.order {
		out = append(out, r.courses[id].course.Materials...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumMaterials returns the total number of materials.
func (r *Repository) NumMaterials() int { return r.nMaterials }

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
// adds them to the repository, validating each. The decoded strings
// share storage as a Sharer makes them.
func (r *Repository) LoadJSON(rd io.Reader) error {
	var doc struct {
		Courses []*Course `json:"courses"`
	}
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return fmt.Errorf("materials: decoding JSON: %w", err)
	}
	r.vocab.NewSharer().Courses(doc.Courses)
	return r.AddCourses(doc.Courses...)
}
