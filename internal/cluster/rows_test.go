package cluster

import (
	"fmt"
	"math"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/materials/materialstest"
	"csmaterials/internal/stats"
)

// referenceBuild is the clustering BuildGroup replaced, kept as its
// oracle: 1 − stats.Jaccard over each course's TagSet, every pair
// computed, and a fresh active list per merge.
func referenceBuild(courses []*materials.Course, linkage Linkage) *Dendrogram {
	n := len(courses)
	sets := make([]map[string]bool, n)
	for i, c := range courses {
		sets[i] = c.TagSet()
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				dist[i][j] = 1 - stats.Jaccard(sets[i], sets[j])
			}
		}
	}
	type state struct {
		node   *Node
		leaves []int
	}
	active := make([]*state, n)
	for i, c := range courses {
		active[i] = &state{node: &Node{Course: c, Size: 1}, leaves: []int{i}}
	}
	linkDist := func(a, b *state) float64 {
		best, worst := math.Inf(1), math.Inf(-1)
		sum, cnt := 0.0, 0
		for _, i := range a.leaves {
			for _, j := range b.leaves {
				d := dist[i][j]
				sum += d
				cnt++
				if d < best {
					best = d
				}
				if d > worst {
					worst = d
				}
			}
		}
		switch linkage {
		case Single:
			return best
		case Complete:
			return worst
		default:
			return sum / float64(cnt)
		}
	}
	for len(active) > 1 {
		bi, bj, bd := 0, 1, math.Inf(1)
		for i := 0; i < len(active); i++ {
			for j := i + 1; j < len(active); j++ {
				if d := linkDist(active[i], active[j]); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		merged := &state{
			node:   &Node{Left: active[bi].node, Right: active[bj].node, Height: bd, Size: active[bi].node.Size + active[bj].node.Size},
			leaves: append(append([]int(nil), active[bi].leaves...), active[bj].leaves...),
		}
		var next []*state
		for k, c := range active {
			if k != bi && k != bj {
				next = append(next, c)
			}
		}
		active = append(next, merged)
	}
	return &Dendrogram{Root: active[0].node, Linkage: linkage}
}

// sameTree reports the first difference between two dendrograms: leaf
// course, size or the bits of a merge height.
func sameTree(a, b *Node) error {
	switch {
	case a.Course != b.Course || a.Size != b.Size:
		return fmt.Errorf("node %v (size %d) against %v (size %d)", a.Course, a.Size, b.Course, b.Size)
	case math.Float64bits(a.Height) != math.Float64bits(b.Height):
		return fmt.Errorf("merge height %v against %v", a.Height, b.Height)
	case a.IsLeaf():
		return nil
	}
	if err := sameTree(a.Left, b.Left); err != nil {
		return err
	}
	return sameTree(a.Right, b.Right)
}

// corpora returns every group of the seed corpus and seeded random
// corpora, each as the repository group the served route reads.
func corpora(t *testing.T) map[string]*materials.Group {
	t.Helper()
	out := map[string]*materials.Group{}
	for _, sg := range materialstest.SeedGroups() {
		out[sg.Name] = dataset.Repository().Group(sg.IDs)
	}
	for seed := int64(1); seed <= 30; seed++ {
		courses := materialstest.RandomCourses(seed, 2+int(seed%9))
		repo, err := materialstest.Repository(courses)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("seed %d", seed)] = repo.Group(materialstest.IDs(courses))
	}
	return out
}

// TestRowJaccardMatchesStats holds the merge Jaccard of two tag rows to
// stats.Jaccard over the courses' TagSets, bit for bit, for every pair.
func TestRowJaccardMatchesStats(t *testing.T) {
	for name, g := range corpora(t) {
		for i, a := range g.Courses {
			for j, b := range g.Courses {
				got, want := jaccard(g.Rows[i], g.Rows[j]), stats.Jaccard(a.TagSet(), b.TagSet())
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Jaccard(%s, %s) = %v from rows, %v from TagSets", name, a.ID, b.ID, got, want)
				}
			}
		}
	}
}

// TestBuildGroupMatchesReference holds BuildGroup, and Build of the
// same courses, to the clustering it replaced, under every linkage.
func TestBuildGroupMatchesReference(t *testing.T) {
	for name, g := range corpora(t) {
		for _, l := range []Linkage{Average, Single, Complete} {
			want := referenceBuild(g.Courses, l)
			for route, build := range map[string]func() (*Dendrogram, error){
				"BuildGroup": func() (*Dendrogram, error) { return BuildGroup(g, l) },
				"Build":      func() (*Dendrogram, error) { return Build(g.Courses, l) },
			} {
				got, err := build()
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTree(got.Root, want.Root); err != nil {
					t.Fatalf("%s, %s linkage, %s: %v", name, l, route, err)
				}
			}
		}
	}
}

// TestBuildAllocs bounds the allocations of clustering the 20 seed
// courses. The clustering this replaced made 391 through Build: a TagSet
// per course, every distance row, a node and state per leaf and a new
// active list per merge.
func TestBuildAllocs(t *testing.T) {
	courses := dataset.Courses()
	g := dataset.Repository().Group(dataset.AllCourseIDs())
	for _, c := range []struct {
		route string
		max   float64
		build func()
	}{
		{"Build", 110, func() { Build(courses, Average) }},
		{"BuildGroup", 50, func() { BuildGroup(g, Average) }},
	} {
		if got := testing.AllocsPerRun(20, c.build); got > c.max {
			t.Errorf("%s of the seed corpus makes %v allocations, want at most %v", c.route, got, c.max)
		}
	}
}
