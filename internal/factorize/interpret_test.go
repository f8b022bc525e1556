package factorize

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials/materialstest"
	"csmaterials/internal/matrix"
	"csmaterials/internal/ontology"
	"csmaterials/internal/stats"
)

// referenceAreaOf is the per-tag area lookup that resolveAreas replaced,
// kept as its oracle.
func referenceAreaOf(guidelines []*ontology.Guideline, tag string) string {
	for _, g := range guidelines {
		if n := g.Lookup(tag); n != nil {
			if a := ontology.AreaOf(n); a != nil {
				if g != guidelines[0] {
					return g.Name + ":" + a.ID
				}
				return a.ID
			}
		}
	}
	return "?"
}

// referenceKAShare is KAShare as it was, a map grown tag by tag.
func referenceKAShare(m *Model, guidelines []*ontology.Guideline, t int) map[string]float64 {
	total := 0.0
	shares := map[string]float64{}
	for j, w := range m.H.RowView(t) {
		if w <= 0 {
			continue
		}
		shares[referenceAreaOf(guidelines, m.Tags[j])] += w
		total += w
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares
}

// referenceTopTags is TopTags as it was: a full stable ranking of the row.
func referenceTopTags(m *Model, t, n int) []TagWeight {
	row := m.H.RowView(t)
	order := stats.RankDescending(row)
	n = min(n, len(order))
	out := make([]TagWeight, n)
	for i := range out {
		out[i] = TagWeight{Tag: m.Tags[order[i]], Weight: row[order[i]]}
	}
	return out
}

// sameShares compares two share maps key for key, bit for bit.
func sameShares(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// interpretModel is a model of the given columns with a random H whose
// weights are drawn from values that force ties, zeros, subnormals
// and, when nonFinite is set, infinities and NaNs.
func interpretModel(rng *rand.Rand, tags []string, k int, nonFinite bool, guidelines []*ontology.Guideline) *Model {
	values := []float64{0, 0, math.Copysign(0, -1), 5e-324, 1e-310, 1e-300, 0.25, 0.25, 0.5, 1, 1, 3}
	if nonFinite {
		values = append(values, math.Inf(1), math.NaN())
	}
	h := matrix.New(k, len(tags))
	for t := 0; t < k; t++ {
		for j := range tags {
			h.Set(t, j, values[rng.Intn(len(values))])
		}
	}
	m := &Model{Tags: tags, H: h, K: k}
	m.resolveAreas(guidelines)
	return m
}

// TestInterpretationMatchesReference holds the per-column areas,
// KAShare, LabelOf and TopTags to the per-call code they replaced, on
// the columns of every seed group and of seeded random corpora, under
// three guideline lists (unknown tags resolve to "?" under CS2013
// alone).
func TestInterpretationMatchesReference(t *testing.T) {
	columns := map[string][]string{}
	repo := dataset.Repository()
	for _, sg := range materialstest.SeedGroups() {
		_, columns[sg.Name] = repo.Group(sg.IDs).Matrix()
	}
	for seed := int64(1); seed <= 20; seed++ {
		courses := materialstest.RandomCourses(seed, 3+int(seed%5))
		r, err := materialstest.Repository(courses)
		if err != nil {
			t.Fatal(err)
		}
		if _, tags := r.Group(materialstest.IDs(courses)).Matrix(); len(tags) > 0 {
			columns[fmt.Sprintf("seed %d", seed)] = tags
		}
	}
	lists := [][]*ontology.Guideline{
		{ontology.CS2013(), ontology.PDC12()},
		{ontology.PDC12(), ontology.CS2013()},
		{ontology.CS2013()},
	}
	rng := rand.New(rand.NewSource(7))
	for name, tags := range columns {
		for _, gl := range lists {
			for _, nonFinite := range []bool{false, true} {
				m := interpretModel(rng, tags, 4, nonFinite, gl)
				label := fmt.Sprintf("%s, %d guidelines, first %s, non-finite %v", name, len(gl), gl[0].Name, nonFinite)
				for j, tag := range tags {
					if got, want := m.areas[m.area[j]], referenceAreaOf(gl, tag); got != want {
						t.Fatalf("%s: column %q in area %q, want %q", label, tag, got, want)
					}
				}
				for typ := 0; typ < m.K; typ++ {
					got, want := m.KAShare(typ), referenceKAShare(m, gl, typ)
					if !sameShares(got, want) {
						t.Fatalf("%s: type %d KAShare %v, want %v", label, typ, got, want)
					}
					if nonFinite {
						continue // NaN shares have no order to label or rank by
					}
					if got, want := LabelOf(got), refLabel(want); got != want {
						t.Fatalf("%s: type %d label %q, want %q", label, typ, got, want)
					}
					all := referenceTopTags(m, typ, len(tags))
					for _, n := range []int{0, 1, 2, 3, 5, 8, 13, len(tags) - 1, len(tags), len(tags) + 1} {
						if n < 0 {
							continue
						}
						got, want := m.TopTags(typ, n), all[:min(n, len(all))]
						if len(got) != len(want) {
							t.Fatalf("%s: type %d TopTags(%d) has %d entries, want %d", label, typ, n, len(got), len(want))
						}
						for i := range got {
							if got[i].Tag != want[i].Tag || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
								t.Fatalf("%s: type %d TopTags(%d)[%d] = %v, want %v", label, typ, n, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// refLabel is TypeLabel as it was: the first two of the shares sorted
// by descending share, ties by area ID.
func refLabel(shares map[string]float64) string {
	kas := make([]TagWeight, 0, len(shares))
	for ka, s := range shares {
		kas = append(kas, TagWeight{Tag: ka, Weight: s})
	}
	sort.Slice(kas, func(i, j int) bool {
		if kas[i].Weight != kas[j].Weight { // lint:exact — the order being reproduced
			return kas[i].Weight > kas[j].Weight
		}
		return kas[i].Tag < kas[j].Tag
	})
	switch len(kas) {
	case 0:
		return "empty"
	case 1:
		return kas[0].Tag
	default:
		return kas[0].Tag + "+" + kas[1].Tag
	}
}
