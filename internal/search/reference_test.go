package search

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

// refEngine is the engine as it was before the ID-ordered index: every
// search sorts the repository's materials and builds a tag set per
// material. It is the reference the differential test holds Engine to.
type refEngine struct {
	repo    *materials.Repository
	docFreq map[string]int
	numDocs int
}

func newRefEngine(repo *materials.Repository) *refEngine {
	e := &refEngine{repo: repo, docFreq: map[string]int{}}
	for _, m := range repo.Materials() {
		e.numDocs++
		for tag := range m.TagSet() {
			e.docFreq[tag]++
		}
	}
	return e
}

func (e *refEngine) idf(tag string) float64 {
	df := e.docFreq[tag]
	return math.Log(float64(e.numDocs+1) / float64(df+1))
}

func (e *refEngine) search(q Query) []Result {
	wanted := map[string]bool{}
	for _, t := range q.Tags {
		wanted[t] = true
	}
	var results []Result
	textWords := strings.Fields(strings.ToLower(q.Text))
	for _, m := range e.repo.Materials() {
		if !matchFacets(m, q) {
			continue
		}
		var matched []string
		for tag := range m.TagSet() {
			ok := wanted[tag]
			if !ok {
				for _, p := range q.TagPrefixes {
					if strings.HasPrefix(tag, p) {
						ok = true
						break
					}
				}
			}
			if ok {
				matched = append(matched, tag)
			}
		}
		sort.Strings(matched)
		score := 0.0
		for _, tag := range matched {
			score += e.idf(tag)
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
			if len(q.Tags)+len(q.TagPrefixes) > 0 {
				continue
			}
			score = 1
		}
		results = append(results, Result{Material: m, Score: score, MatchedTags: matched})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].Material.ID < results[j].Material.ID
	})
	if q.Limit > 0 && len(results) > q.Limit {
		results = results[:q.Limit]
	}
	return results
}

// repeatedTagRepo rebuilds the seed corpus with every material's tags
// shuffled, a third of the materials listing one of their tags twice,
// and the facets and text the seed leaves empty filled in mixed case.
func repeatedTagRepo(t *testing.T, rng *rand.Rand) *materials.Repository {
	t.Helper()
	languages := []string{"C++", "java", "Python", "CUDA"}
	sets := []string{"earthquakes", "Flights", "genomes"}
	words := []string{"Recursion", "threads", "Sorting", "MPI", "locks", "big-O"}
	repo := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	repeated := 0
	for _, c := range dataset.Courses() {
		cc := c.Clone()
		for i, m := range cc.Materials {
			mm := m.Clone()
			rng.Shuffle(len(mm.Tags), func(a, b int) { mm.Tags[a], mm.Tags[b] = mm.Tags[b], mm.Tags[a] })
			if rng.Intn(3) == 0 {
				mm.Tags = append(mm.Tags, mm.Tags[rng.Intn(len(mm.Tags))])
				repeated++
			}
			mm.Language = languages[rng.Intn(len(languages))]
			if rng.Intn(2) == 0 {
				mm.Datasets = []string{sets[rng.Intn(len(sets))]}
			}
			mm.Description = words[rng.Intn(len(words))] + " and " + words[rng.Intn(len(words))]
			cc.Materials[i] = mm
		}
		if err := repo.AddCourses(cc); err != nil {
			t.Fatal(err)
		}
	}
	if repeated == 0 {
		t.Fatal("no material repeats a tag")
	}
	return repo
}

// queryGen draws random queries from a corpus's own vocabulary, plus
// values no material has.
type queryGen struct {
	rng                                 *rand.Rand
	tags, words, authors, langs, levels []string
	datasets                            []string
}

func newQueryGen(repo *materials.Repository, rng *rand.Rand) *queryGen {
	g := &queryGen{rng: rng}
	seen := map[string]bool{}
	add := func(list *[]string, v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			*list = append(*list, v)
		}
	}
	for _, m := range repo.Materials() {
		for _, tag := range m.Tags {
			add(&g.tags, tag)
		}
		for _, w := range strings.Fields(m.Title + " " + m.Description) {
			add(&g.words, w)
		}
		add(&g.authors, m.Author)
		add(&g.langs, m.Language)
		add(&g.levels, m.CourseLevel)
		for _, d := range m.Datasets {
			add(&g.datasets, d)
		}
	}
	return g
}

// pick returns a value from list in random case, or one no material
// has.
func (g *queryGen) pick(list []string) string {
	if len(list) == 0 || g.rng.Intn(8) == 0 {
		return "no-such-value"
	}
	v := list[g.rng.Intn(len(list))]
	switch g.rng.Intn(3) {
	case 0:
		v = strings.ToUpper(v)
	case 1:
		v = strings.ToLower(v)
	}
	return v
}

func (g *queryGen) facet(list []string) string {
	if g.rng.Intn(6) != 0 {
		return ""
	}
	return g.pick(list)
}

func (g *queryGen) query() Query {
	var q Query
	for n := g.rng.Intn(4); n > 0; n-- {
		if g.rng.Intn(10) == 0 {
			q.Tags = append(q.Tags, "XX/unknown")
		} else {
			q.Tags = append(q.Tags, g.tags[g.rng.Intn(len(g.tags))])
		}
	}
	for n := g.rng.Intn(3); n > 0; n-- {
		tag := g.tags[g.rng.Intn(len(g.tags))]
		q.TagPrefixes = append(q.TagPrefixes, tag[:g.rng.Intn(len(tag)+1)])
	}
	var words []string
	for n := g.rng.Intn(3); n > 0; n-- {
		w := g.pick(g.words)
		if g.rng.Intn(3) == 0 {
			w = w[:1+g.rng.Intn(len(w))]
		}
		words = append(words, w)
	}
	q.Text = strings.Join(words, " ")
	q.Author = g.facet(g.authors)
	q.Language = g.facet(g.langs)
	q.CourseLevel = g.facet(g.levels)
	q.Dataset = g.facet(g.datasets)
	if g.rng.Intn(2) == 0 {
		q.Limit = 1 + g.rng.Intn(30)
	}
	switch g.rng.Intn(8) {
	case 0, 1, 2:
		q.Offset = g.rng.Intn(40)
	case 3:
		q.Offset = g.rng.Intn(1200)
	case 4:
		q.Offset = math.MaxInt
	}
	if q.Limit > 0 && g.rng.Intn(20) == 0 {
		q.Limit = math.MaxInt
	}
	return q
}

// pageBounds clips [offset, offset+limit) to n items, a limit of 0
// meaning no cap.
func pageBounds(n, limit, offset int) (lo, hi int) {
	lo = min(offset, n)
	hi = n
	if limit > 0 && limit < n-lo {
		hi = lo + limit
	}
	return lo, hi
}

// TestSearchMatchesReference runs thousands of random queries through
// Engine and refEngine over the seed corpus and over a corpus whose
// materials list tags out of order and twice. Each query draws an
// offset and a limit; the page and the total must agree with the
// reference's full ranking sliced to that page, in order, matched tags
// (nil or not) and score bits.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		name string
		repo *materials.Repository
	}{
		{"seed", dataset.Repository()},
		{"repeated-tags", repeatedTagRepo(t, rng)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, ref := NewEngine(tc.repo), newRefEngine(tc.repo)
			gen := newQueryGen(tc.repo, rng)
			nonEmpty := 0
			for i := 0; i < 2000; i++ {
				q := gen.query()
				got, total := e.Page(q)
				all := ref.search(Query{Tags: q.Tags, TagPrefixes: q.TagPrefixes, Text: q.Text,
					CourseLevel: q.CourseLevel, Author: q.Author, Language: q.Language, Dataset: q.Dataset})
				lo, hi := pageBounds(len(all), q.Limit, q.Offset)
				want := all[lo:hi]
				if len(want) > 0 {
					nonEmpty++
				}
				if total != len(all) || len(got) != len(want) {
					t.Fatalf("query %d %+v: %d results of %d, reference %d of %d", i, q, len(got), total, len(want), len(all))
				}
				search := e.Search(q)
				if len(search) != len(want) {
					t.Fatalf("query %d %+v: Search returned %d results, Page %d", i, q, len(search), len(got))
				}
				for j := range want {
					for _, g := range []Result{got[j], search[j]} {
						w := want[j]
						if g.Material != w.Material || math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
							(g.MatchedTags == nil) != (w.MatchedTags == nil) || !slices.Equal(g.MatchedTags, w.MatchedTags) {
							t.Fatalf("query %d %+v, result %d: got %s %v %q, reference %s %v %q", i, q, j,
								g.Material.ID, g.Score, g.MatchedTags, w.Material.ID, w.Score, w.MatchedTags)
						}
					}
				}
				// The caller owns the results: appending to one result's
				// tags must not reach another's.
				for j := range got {
					got[j].MatchedTags = append(got[j].MatchedTags, "appended")
				}
				for j := range want {
					if tags := got[j].MatchedTags; !slices.Equal(tags[:len(tags)-1], want[j].MatchedTags) {
						t.Fatalf("query %d %+v: appending to the results changed result %d's tags to %q", i, q, j, tags)
					}
				}
			}
			// SimilarTo ranks the source's own tags and leaves the source
			// out of the ranking.
			ms := tc.repo.Materials()
			for i := 0; i < 200; i++ {
				src, limit := ms[rng.Intn(len(ms))], rng.Intn(12)
				var want []Result
				for _, r := range ref.search(Query{Tags: src.Tags}) {
					if r.Material != src && (limit == 0 || len(want) < limit) {
						want = append(want, r)
					}
				}
				got := e.SimilarTo(src.ID, limit)
				if len(got) != len(want) {
					t.Fatalf("SimilarTo(%s, %d): %d results, reference %d", src.ID, limit, len(got), len(want))
				}
				for j, w := range want {
					if g := got[j]; g.Material != w.Material || math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
						!slices.Equal(g.MatchedTags, w.MatchedTags) {
						t.Fatalf("SimilarTo(%s, %d), result %d: got %s %v %q, reference %s %v %q", src.ID, limit, j,
							g.Material.ID, g.Score, g.MatchedTags, w.Material.ID, w.Score, w.MatchedTags)
					}
				}
			}
			if nonEmpty < 500 {
				t.Fatalf("only %d of 2000 queries matched anything; the generator is too narrow", nonEmpty)
			}
		})
	}
}
