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
	repo *materials.Repository
	// byID is the repository's materials in ID order, the order every
	// search scans them in.
	byID []*materials.Material
	// docFreq counts materials per tag for the IDF weighting.
	docFreq map[string]int
}

// NewEngine indexes the repository. The engine reads the repository's
// materials once, here, so the repository must not change afterwards:
// index a new revision with a new engine.
func NewEngine(repo *materials.Repository) *Engine {
	e := &Engine{repo: repo, byID: repo.Materials(), docFreq: map[string]int{}}
	for _, m := range e.byID {
		for tag := range m.TagSet() {
			e.docFreq[tag]++
		}
	}
	return e
}

// IDF returns the inverse document frequency weight of a tag: rare tags
// discriminate more. Unknown tags get the maximum weight.
func (e *Engine) IDF(tag string) float64 {
	df := e.docFreq[tag]
	return math.Log(float64(len(e.byID)+1) / float64(df+1))
}

// Search scores every material against the query and returns matches in
// descending score order (ties broken by material ID for determinism).
func (e *Engine) Search(q Query) []Result {
	wanted := make(map[string]bool, len(q.Tags))
	for _, t := range q.Tags {
		wanted[t] = true
	}
	var results []Result
	// Every result's MatchedTags is a capped window of one backing
	// slice, so a search allocates per growth, not per result.
	var tagBuf []string
	textWords := strings.Fields(strings.ToLower(q.Text))
	for _, m := range e.byID {
		if !matchFacets(m, q) {
			continue
		}
		start := len(tagBuf)
		for _, tag := range m.Tags {
			if wanted[tag] || hasAnyPrefix(tag, q.TagPrefixes) {
				tagBuf = append(tagBuf, tag)
			}
		}
		// Sum each distinct tag once, in sorted order: a float sum in
		// the material's own tag order would vary in its last bits, and
		// with it the ranking of near-ties.
		var matched []string
		if len(tagBuf) > start {
			slices.Sort(tagBuf[start:])
			end := start + len(slices.Compact(tagBuf[start:]))
			tagBuf = tagBuf[:end]
			matched = tagBuf[start:end:end]
		}
		score := 0.0
		for _, tag := range matched {
			score += e.IDF(tag)
		}
		if len(textWords) > 0 {
			hay := strings.ToLower(m.Title + " " + m.Description)
			hits := 0
			for _, w := range textWords {
				if strings.Contains(hay, w) {
					hits++
				}
			}
			if hits == 0 && len(matched) == 0 {
				continue
			}
			score += float64(hits)
		} else if len(matched) == 0 {
			// Tag-only query and no overlap: not a result — unless the
			// query has no tag criteria at all (pure facet browse).
			if len(q.Tags)+len(q.TagPrefixes) > 0 {
				continue
			}
			score = 1 // facet-only match
		}
		results = append(results, Result{Material: m, Score: score, MatchedTags: matched})
	}
	slices.SortFunc(results, func(a, b Result) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), strings.Compare(a.Material.ID, b.Material.ID))
	})
	if q.Limit > 0 && len(results) > q.Limit {
		results = results[:q.Limit]
	}
	return results
}

func hasAnyPrefix(tag string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(tag, p) {
			return true
		}
	}
	return false
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

// SimilarTo returns materials most similar to the given one by weighted
// tag overlap — "find a better set of slides to explain this concept".
// The material itself is excluded.
func (e *Engine) SimilarTo(id string, limit int) []Result {
	src := e.repo.Material(id)
	if src == nil {
		return nil
	}
	results := e.Search(Query{Tags: src.Tags, Limit: 0})
	out := results[:0]
	for _, r := range results {
		if r.Material.ID != id {
			out = append(out, r)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
