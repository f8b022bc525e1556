package materials

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"csmaterials/internal/matrix"
	"csmaterials/internal/ontology"
)

// Vocabulary is a sorted list of distinct curriculum entry IDs. A tag's
// rank is its index in the list, so ranks order exactly as the IDs
// themselves sort, and a course's tag set is held as ascending ranks.
type Vocabulary struct {
	tags []string
	rank map[string]int32
}

// newVocabulary interns tags, which must be sorted and distinct.
func newVocabulary(tags []string) *Vocabulary {
	v := &Vocabulary{tags: tags, rank: make(map[string]int32, len(tags))}
	for i, t := range tags {
		v.rank[t] = int32(i)
	}
	return v
}

// Len returns the number of entries.
func (v *Vocabulary) Len() int { return len(v.tags) }

// Tag returns the entry ID of rank r.
func (v *Vocabulary) Tag(r int32) string { return v.tags[r] }

// Rank returns the rank of tag, and false when the vocabulary does not
// hold it.
func (v *Vocabulary) Rank(tag string) (int32, bool) {
	r, ok := v.rank[tag]
	return r, ok
}

// PrefixRange returns the ranks [lo, hi) of the entries whose IDs start
// with prefix: they sort next to each other, from the first ID not
// below prefix.
func (v *Vocabulary) PrefixRange(prefix string) (lo, hi int32) {
	i := sort.SearchStrings(v.tags, prefix)
	n := sort.Search(len(v.tags)-i, func(k int) bool { return !strings.HasPrefix(v.tags[i+k], prefix) })
	return int32(i), int32(i + n)
}

// Sharer rewrites the strings of materials an ingest decoded or copied
// so that equal strings share storage: a tag the vocabulary holds
// becomes the vocabulary's own string, a valid type its constant, and
// each author, language, course level and dataset name the first copy
// of it this Sharer saw. A tag or material list with spare capacity,
// as a decoder's growth leaves it, is copied to its length. Use one
// Sharer per document, and only on values the ingest made itself,
// since it writes into them.
type Sharer struct {
	vocab *Vocabulary
	seen  map[string]string
}

// NewSharer returns a Sharer over v with no strings seen.
func (v *Vocabulary) NewSharer() *Sharer {
	return &Sharer{vocab: v, seen: map[string]string{}}
}

// Courses shares the strings of every material of courses and trims
// their material lists. It runs before validation, so it passes over
// null courses and materials.
func (s *Sharer) Courses(courses []*Course) {
	for _, c := range courses {
		if c == nil {
			continue
		}
		if cap(c.Materials) > len(c.Materials) {
			c.Materials = slices.Clone(c.Materials)
		}
		for _, m := range c.Materials {
			if m != nil {
				s.Material(m)
			}
		}
	}
}

// Material trims m's tag list and shares its tags, type, author,
// language, course level and dataset names.
func (s *Sharer) Material(m *Material) {
	if cap(m.Tags) > len(m.Tags) {
		m.Tags = slices.Clone(m.Tags)
	}
	s.Tags(m.Tags)
	if t, ok := validType[m.Type]; ok {
		m.Type = t
	}
	m.Author = s.str(m.Author)
	m.Language = s.str(m.Language)
	m.CourseLevel = s.str(m.CourseLevel)
	for i, d := range m.Datasets {
		m.Datasets[i] = s.str(d)
	}
}

// Tags replaces each tag the vocabulary holds by the vocabulary's own
// string.
func (s *Sharer) Tags(tags []string) {
	for i, t := range tags {
		if r, ok := s.vocab.rank[t]; ok {
			tags[i] = s.vocab.tags[r]
		}
	}
}

func (s *Sharer) str(v string) string {
	if v == "" {
		return v
	}
	if u, ok := s.seen[v]; ok {
		return u
	}
	s.seen[v] = v
	return v
}

// TagOf returns the tag spelled by b as Tags shares it: the
// vocabulary's own string, or a copy of b when the vocabulary does not
// hold it. A decoder hands it bytes it is still reading.
func (s *Sharer) TagOf(b []byte) string {
	if r, ok := s.vocab.rank[string(b)]; ok {
		return s.vocab.tags[r]
	}
	return string(b)
}

// TypeOf returns the material type spelled by b as Material shares it:
// the type's constant, or a copy of b when it names no valid type.
func (s *Sharer) TypeOf(b []byte) MaterialType {
	if t, ok := validType[MaterialType(b)]; ok {
		return t
	}
	return MaterialType(b)
}

// StringOf returns the string spelled by b as Material shares an
// author, language, course level or dataset name: the first copy of it
// this Sharer saw.
func (s *Sharer) StringOf(b []byte) string {
	if u, ok := s.seen[string(b)]; ok {
		return u
	}
	return s.str(string(b))
}

// vocabularies caches one Vocabulary per guideline list, so every
// repository over the same guidelines (each PUT builds one) shares it.
// A process uses a handful of guideline lists; entries are never
// dropped.
var vocabularies struct {
	sync.Mutex
	entries []guidelineVocabulary
}

type guidelineVocabulary struct {
	guidelines []*ontology.Guideline
	vocab      *Vocabulary
}

// VocabularyOf returns the shared vocabulary of every entry ID in the
// guidelines: the one every repository over them ranks into. Guidelines
// are read-only once built (see ontology.CS2013), so the vocabulary
// never goes stale.
func VocabularyOf(guidelines ...*ontology.Guideline) *Vocabulary {
	vocabularies.Lock()
	defer vocabularies.Unlock()
	for _, e := range vocabularies.entries {
		if slices.Equal(e.guidelines, guidelines) {
			return e.vocab
		}
	}
	var tags []string
	for _, g := range guidelines {
		for _, n := range g.Nodes() {
			tags = append(tags, n.ID)
		}
	}
	sort.Strings(tags)
	v := newVocabulary(slices.Compact(tags))
	vocabularies.entries = append(vocabularies.entries,
		guidelineVocabulary{guidelines: slices.Clone(guidelines), vocab: v})
	return v
}

// internRow sorts ranks and drops repeats, giving a course's row.
func internRow(ranks []int32) []int32 {
	slices.Sort(ranks)
	return slices.Clip(slices.Compact(ranks))
}

// Group is a list of courses with each course's distinct tags interned
// as ascending ranks into one vocabulary: the input of every group
// analysis (course types, clustering, agreement). Rows[i] belongs to
// Courses[i]. A Group and its rows are read-only; a repository's groups
// share their rows with it.
type Group struct {
	Courses []*Course
	Rows    [][]int32
	Vocab   *Vocabulary
}

// NewGroup interns ad-hoc courses, ones not read from a repository,
// against a vocabulary made of their own tags.
func NewGroup(courses []*Course) *Group {
	rank := map[string]int32{}
	var tags []string
	g := &Group{Courses: courses, Rows: make([][]int32, len(courses))}
	for i, c := range courses {
		n := 0
		for _, m := range c.Materials {
			n += len(m.Tags)
		}
		row := make([]int32, 0, n)
		for _, m := range c.Materials {
			for _, t := range m.Tags {
				r, ok := rank[t]
				if !ok {
					r = int32(len(tags))
					rank[t] = r
					tags = append(tags, t)
				}
				row = append(row, r)
			}
		}
		g.Rows[i] = row
	}
	// The ranks above are in first-seen order; re-rank by sorted tag.
	sort.Strings(tags)
	perm := make([]int32, len(tags))
	for r, t := range tags {
		perm[rank[t]] = int32(r)
		rank[t] = int32(r)
	}
	for i, row := range g.Rows {
		for k, r := range row {
			row[k] = perm[r]
		}
		g.Rows[i] = internRow(row)
	}
	g.Vocab = &Vocabulary{tags: tags, rank: rank}
	return g
}

// Matrix builds the paper's analysis input: a 0-1 CSR matrix A with one
// row per course and one column per tag that at least one of them
// covers, with the column tags, sorted. It is the one builder of the
// course matrix; the ablations that need it dense call ToDense.
func (g *Group) Matrix() (*matrix.CSR, []string) {
	if len(g.Courses) == 0 {
		panic("materials: CourseMatrix with no courses")
	}
	// col[r] is 1 + the column of rank r, or 0 when no row holds r.
	col := make([]int32, g.Vocab.Len())
	nnz, n := 0, 0
	for _, row := range g.Rows {
		for _, r := range row {
			n += int(1 - col[r])
			col[r] = 1
		}
		nnz += len(row)
	}
	tags := make([]string, 0, n)
	for r, c := range col {
		if c != 0 {
			tags = append(tags, g.Vocab.tags[r])
			col[r] = int32(len(tags))
		}
	}
	rowPtr := make([]int, len(g.Rows)+1)
	colIdx := make([]int, 0, nnz)
	for i, row := range g.Rows {
		for _, r := range row {
			colIdx = append(colIdx, int(col[r])-1)
		}
		rowPtr[i+1] = len(colIdx)
	}
	vals := make([]float64, nnz)
	for p := range vals {
		vals[p] = 1
	}
	return matrix.NewCSR(len(g.Rows), len(tags), rowPtr, colIdx, vals), tags
}

// CourseMatrix builds the course matrix of ad-hoc courses:
// NewGroup(courses).Matrix().
func CourseMatrix(courses []*Course) (*matrix.CSR, []string) {
	return NewGroup(courses).Matrix()
}
