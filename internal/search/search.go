// Package search implements the CS Materials search of §3.1.2: find
// learning materials matching a set of curriculum topics and learning
// outcomes, with TF-IDF-style scoring (rarer curriculum tags weigh more)
// and facet filters for course level, author, programming language, and
// datasets used.
package search

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"csmaterials/internal/materials"
)

// Query describes a search.
type Query struct {
	// Tags are the curriculum entries to match (exact IDs). A material
	// scores by the weighted overlap of its tags with these.
	Tags []string
	// TagPrefixes match whole subtrees, e.g. "AL/basic-analysis/" matches
	// every entry of that knowledge unit.
	TagPrefixes []string
	// Text is matched case-insensitively against material titles and
	// descriptions (any word).
	Text string
	// CourseLevel, Author, Language, Dataset filter exactly when non-empty.
	CourseLevel string
	Author      string
	Language    string
	Dataset     string
	// Offset skips that many leading results.
	Offset int
	// Limit caps the result count; 0 means no cap.
	Limit int
}

// Result is a scored material.
type Result struct {
	Material *materials.Material
	Score    float64
	// MatchedTags are the query tags present on the material.
	MatchedTags []string
}

// Engine indexes a repository's materials for search.
type Engine struct {
	repo  *materials.Repository
	vocab *materials.Vocabulary
	// byID is the repository's materials in ID order, the order every
	// search scans them in, so a material's index breaks score ties.
	byID []*materials.Material
	// rows holds each material's distinct tags as ascending vocabulary
	// ranks, material i's at rows[start[i]:start[i+1]]. Ranks order as
	// the tags sort, so a score summed along a row adds the same terms
	// in the same order as one summed over the sorted tags.
	rows  []int32
	start []int32
	// idf is the inverse document frequency weight of each rank.
	idf []float64
}

// NewEngine indexes the repository. The engine reads the repository's
// materials once, here, so the repository must not change afterwards:
// index a new revision with a new engine.
func NewEngine(repo *materials.Repository) *Engine {
	byID := repo.Materials()
	vocab := repo.Vocabulary()
	n := 0
	for _, m := range byID {
		n += len(m.Tags)
	}
	e := &Engine{repo: repo, vocab: vocab, byID: byID,
		rows: make([]int32, 0, n), start: make([]int32, len(byID)+1), idf: make([]float64, vocab.Len())}
	// idf counts materials per rank until the weights replace the counts.
	for i, m := range byID {
		lo := len(e.rows)
		for _, tag := range m.Tags {
			// A repository holds only tags its vocabulary ranks.
			if r, ok := vocab.Rank(tag); ok {
				e.rows = append(e.rows, r)
			}
		}
		slices.Sort(e.rows[lo:])
		e.rows = e.rows[:lo+len(slices.Compact(e.rows[lo:]))]
		for _, r := range e.rows[lo:] {
			e.idf[r]++
		}
		e.start[i+1] = int32(len(e.rows))
	}
	for r, df := range e.idf {
		e.idf[r] = idf(len(byID), int(df))
	}
	return e
}

// idf weighs a tag that df of n materials hold.
func idf(n, df int) float64 {
	return math.Log(float64(n+1) / float64(df+1))
}

// IDF returns the inverse document frequency weight of a tag: rare tags
// discriminate more. Unknown tags get the maximum weight.
func (e *Engine) IDF(tag string) float64 {
	if r, ok := e.vocab.Rank(tag); ok {
		return e.idf[r]
	}
	return idf(len(e.byID), 0)
}

// Search scores every material against the query and returns the
// matches [q.Offset, q.Offset+q.Limit) in descending score order, ties
// broken by material ID for determinism.
func (e *Engine) Search(q Query) []Result {
	page, _ := e.Page(q)
	return page
}

// Page is Search that also reports how many materials match in all.
func (e *Engine) Page(q Query) (page []Result, total int) {
	return e.scan(q, nil)
}

// SimilarTo returns materials most similar to the given one by weighted
// tag overlap — "find a better set of slides to explain this concept".
// The material itself is excluded.
func (e *Engine) SimilarTo(id string, limit int) []Result {
	src := e.repo.Material(id)
	if src == nil {
		return nil
	}
	page, _ := e.scan(Query{Tags: src.Tags, Limit: limit}, src)
	return page
}

// hit is a matching material: its index in byID, its score and the
// number of its tags the query matched.
type hit struct {
	score   float64
	i       int32
	matched int32
}

// order ranks a before b when it is negative: the higher score first,
// the lower ID on a tie.
func order(a, b hit) int {
	return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(a.i, b.i))
}

// scan scores every material but skip against q in one pass, keeps the
// leading q.Offset+q.Limit hits in a heap whose root ranks last, and
// builds results, matched tags included, for the page alone.
func (e *Engine) scan(q Query, skip *materials.Material) ([]Result, int) {
	mask := e.mask(q)
	textWords := strings.Fields(strings.ToLower(q.Text))
	offset, keep := max(q.Offset, 0), 0
	if offset < len(e.byID) {
		keep = len(e.byID)
		if q.Limit > 0 && q.Limit < keep-offset {
			keep = offset + q.Limit
		}
	}
	var heap []hit
	total := 0
	for i, m := range e.byID {
		if m == skip || !matchFacets(m, q) {
			continue
		}
		h := hit{i: int32(i)}
		if mask != nil {
			for _, r := range e.rows[e.start[i]:e.start[i+1]] {
				if mask[r] {
					h.score += e.idf[r]
					h.matched++
				}
			}
		}
		if len(textWords) > 0 {
			hay := strings.ToLower(m.Title + " " + m.Description)
			hits := 0
			for _, w := range textWords {
				if strings.Contains(hay, w) {
					hits++
				}
			}
			if hits == 0 && h.matched == 0 {
				continue
			}
			h.score += float64(hits)
		} else if h.matched == 0 {
			// Tag-only query and no overlap: not a result — unless the
			// query has no tag criteria at all (pure facet browse).
			if mask != nil {
				continue
			}
			h.score = 1 // facet-only match
		}
		total++
		heap = push(heap, keep, h)
	}
	if offset >= len(heap) {
		return nil, total
	}
	slices.SortFunc(heap, order)
	heap = heap[offset:]
	n := 0
	for _, h := range heap {
		n += int(h.matched)
	}
	// Every result's MatchedTags is a capped window of one backing
	// slice, so a page allocates its tags once.
	tags := make([]string, 0, n)
	page := make([]Result, len(heap))
	for k, h := range heap {
		page[k] = Result{Material: e.byID[h.i], Score: h.score}
		if h.matched == 0 {
			continue
		}
		lo := len(tags)
		for _, r := range e.rows[e.start[h.i]:e.start[h.i+1]] {
			if mask[r] {
				tags = append(tags, e.vocab.Tag(r))
			}
		}
		page[k].MatchedTags = tags[lo:len(tags):len(tags)]
	}
	return page, total
}

// mask marks the vocabulary ranks q's tags and prefixes match, or is
// nil when q has neither.
func (e *Engine) mask(q Query) []bool {
	if len(q.Tags)+len(q.TagPrefixes) == 0 {
		return nil
	}
	mask := make([]bool, e.vocab.Len())
	for _, t := range q.Tags {
		if r, ok := e.vocab.Rank(t); ok {
			mask[r] = true
		}
	}
	for _, p := range q.TagPrefixes {
		lo, hi := e.vocab.PrefixRange(p)
		for r := lo; r < hi; r++ {
			mask[r] = true
		}
	}
	return mask
}

// push adds h to heap, which holds at most keep hits with the one that
// ranks last at its root.
func push(heap []hit, keep int, h hit) []hit {
	if len(heap) < keep {
		heap = append(heap, h)
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 2
			if order(heap[p], heap[c]) > 0 {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			c = p
		}
		return heap
	}
	if keep == 0 || order(h, heap[0]) > 0 {
		return heap
	}
	heap[0] = h
	for p := 0; ; {
		last := p
		for _, c := range [2]int{2*p + 1, 2*p + 2} {
			if c < len(heap) && order(heap[last], heap[c]) < 0 {
				last = c
			}
		}
		if last == p {
			return heap
		}
		heap[p], heap[last] = heap[last], heap[p]
		p = last
	}
}

func matchFacets(m *materials.Material, q Query) bool {
	if q.CourseLevel != "" && !strings.EqualFold(m.CourseLevel, q.CourseLevel) {
		return false
	}
	if q.Author != "" && !strings.EqualFold(m.Author, q.Author) {
		return false
	}
	if q.Language != "" && !strings.EqualFold(m.Language, q.Language) {
		return false
	}
	if q.Dataset != "" {
		found := false
		for _, d := range m.Datasets {
			if strings.EqualFold(d, q.Dataset) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
