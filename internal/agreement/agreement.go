// Package agreement implements the tag-agreement analysis of §4.3, §4.5,
// and §4.7: for a group of same-named courses, how many courses does each
// curriculum tag appear in? The distribution of those counts is Figure 3;
// pruning the guideline tree to tags above an agreement threshold yields
// the tree views of Figures 4, 6, and 8.
package agreement

import (
	"context"
	"fmt"
	"sort"

	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
	"csmaterials/internal/stats"
)

// Analysis holds the per-tag course counts for a group of courses.
type Analysis struct {
	// Courses are the IDs of the analyzed courses, in order.
	Courses []string
	// Counts maps each curriculum tag to the number of courses whose
	// materials reference it.
	Counts map[string]int

	guidelines []*ontology.Guideline
	// perRank holds Counts by rank into vocab, for passes in tag order.
	perRank []int
	vocab   *materials.Vocabulary
}

// Analyze counts, for every curriculum tag, how many of the given courses
// cover it. Guidelines are used for tree and knowledge-area summaries.
func Analyze(courses []*materials.Course, guidelines ...*ontology.Guideline) (*Analysis, error) {
	return AnalyzeGroup(context.Background(), materials.NewGroup(courses), guidelines...)
}

// AnalyzeGroup is Analyze over an interned course group, with
// cooperative cancellation: the per-course count checks ctx between
// courses and returns ctx.Err() as soon as the context is done. A row
// holds each of its course's tags once, so a tag counts once per
// course however many of its materials carry it.
func AnalyzeGroup(ctx context.Context, g *materials.Group, guidelines ...*ontology.Guideline) (*Analysis, error) {
	if len(g.Courses) == 0 {
		return nil, fmt.Errorf("agreement: no courses")
	}
	if len(guidelines) == 0 {
		return nil, fmt.Errorf("agreement: no guidelines")
	}
	perRank := make([]int, g.Vocab.Len())
	distinct := 0
	ids := make([]string, len(g.Courses))
	for i, c := range g.Courses {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ids[i] = c.ID
		for _, r := range g.Rows[i] {
			if perRank[r] == 0 {
				distinct++
			}
			perRank[r]++
		}
	}
	counts := make(map[string]int, distinct)
	for r, n := range perRank {
		if n > 0 {
			counts[g.Vocab.Tag(int32(r))] = n
		}
	}
	return &Analysis{Courses: ids, Counts: counts, guidelines: guidelines, perRank: perRank, vocab: g.Vocab}, nil
}

// NumTags returns the number of distinct tags across the group.
func (a *Analysis) NumTags() int { return len(a.Counts) }

// AtLeast returns how many tags appear in at least k courses.
func (a *Analysis) AtLeast(k int) int {
	n := 0
	for _, c := range a.Counts {
		if c >= k {
			n++
		}
	}
	return n
}

// TagsAtLeast returns the tags appearing in at least k courses, sorted.
func (a *Analysis) TagsAtLeast(k int) []string {
	var out []string
	for tag, c := range a.Counts {
		if c >= k {
			out = append(out, tag)
		}
	}
	sort.Strings(out)
	return out
}

// Histogram returns the distribution of Figure 3: Counts[v] is the number
// of tags appearing in exactly v courses (index 0 is always empty).
func (a *Analysis) Histogram() *stats.Histogram {
	// Iterate tags in sorted order so obs — and anything downstream that
	// inspects it — is byte-identical run-to-run (determinism contract,
	// DESIGN §8).
	tags := make([]string, 0, len(a.Counts))
	for tag := range a.Counts {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	obs := make([]int, 0, len(tags))
	for _, tag := range tags {
		obs = append(obs, a.Counts[tag])
	}
	return stats.NewHistogram(obs)
}

// Series returns the per-tag counts sorted descending — the y-values of
// Figure 3 when tags are ordered by popularity along the x-axis.
func (a *Analysis) Series() []int {
	out := make([]int, 0, len(a.Counts))
	for _, c := range a.Counts {
		out = append(out, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Tree returns the guideline pruned to the tags that appear in at least k
// courses — the hit-tree of Figures 4, 6, and 8 at agreement level k.
// Only tags belonging to g are considered.
func (a *Analysis) Tree(g *ontology.Guideline, k int) *ontology.Guideline {
	return g.Prune(func(n *ontology.Node) bool {
		return a.Counts[n.ID] >= k && len(n.Children) == 0
	})
}

// KASpan returns the knowledge areas containing at least one tag with
// agreement >= k, as a sorted list of area IDs: the keys of
// KACounts(k), sorted.
func (a *Analysis) KASpan(k int) []string { return SortedAreas(a.KACounts(k)) }

// SortedAreas returns the area IDs of a KACounts map, sorted.
func SortedAreas(counts map[string]int) []string {
	out := make([]string, 0, len(counts))
	for ka := range counts {
		out = append(out, ka)
	}
	sort.Strings(out)
	return out
}

// KACounts returns, for agreement level k, how many qualifying tags fall
// in each knowledge area. A tag counts in the area of the first
// guideline that places it in one; areas from guidelines after the
// first are prefixed with the guideline name, a string built once per
// area. It walks the counted tags in rank order.
func (a *Analysis) KACounts(k int) map[string]int {
	out := map[string]int{}
	var prefixed map[*ontology.Node]string
	for r, c := range a.perRank {
		if c < k || c == 0 {
			continue
		}
		tag := a.vocab.Tag(int32(r))
		for gi, g := range a.guidelines {
			n := g.Lookup(tag)
			if n == nil {
				continue
			}
			area := ontology.AreaOf(n)
			if area == nil {
				continue
			}
			id := area.ID
			if gi > 0 {
				if prefixed == nil {
					prefixed = map[*ontology.Node]string{}
				}
				if id = prefixed[area]; id == "" {
					id = g.Name + ":" + area.ID
					prefixed[area] = id
				}
			}
			out[id]++
			break
		}
	}
	return out
}

// UnitCounts returns, for agreement level k, how many qualifying tags
// fall in each knowledge unit (keyed by unit ID). Used for the paper's
// "12 of those are in the Fundamental Programming Concepts" reading.
func (a *Analysis) UnitCounts(k int) map[string]int {
	out := map[string]int{}
	for tag, c := range a.Counts {
		if c < k {
			continue
		}
		for _, g := range a.guidelines {
			n := g.Lookup(tag)
			if n == nil {
				continue
			}
			if u := ontology.UnitOf(n); u != nil {
				out[u.ID]++
			}
			break
		}
	}
	return out
}

// Alignment quantifies how much two sets of materials cover the same
// curriculum entries (the radial alignment view of §3.1.1): it returns
// the Jaccard similarity of the two tag sets together with the tags
// exclusive to each side and the shared ones.
type Alignment struct {
	Jaccard   float64
	Shared    []string
	OnlyLeft  []string
	OnlyRight []string
}

// Align compares the tag coverage of two material sets.
func Align(left, right []*materials.Material) Alignment {
	ls, rs := map[string]bool{}, map[string]bool{}
	for _, m := range left {
		for _, t := range m.Tags {
			ls[t] = true
		}
	}
	for _, m := range right {
		for _, t := range m.Tags {
			rs[t] = true
		}
	}
	al := Alignment{Jaccard: stats.Jaccard(ls, rs)}
	for t := range ls {
		if rs[t] {
			al.Shared = append(al.Shared, t)
		} else {
			al.OnlyLeft = append(al.OnlyLeft, t)
		}
	}
	for t := range rs {
		if !ls[t] {
			al.OnlyRight = append(al.OnlyRight, t)
		}
	}
	sort.Strings(al.Shared)
	sort.Strings(al.OnlyLeft)
	sort.Strings(al.OnlyRight)
	return al
}
