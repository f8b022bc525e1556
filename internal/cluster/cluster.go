// Package cluster implements agglomerative hierarchical clustering of
// courses by curriculum-tag similarity — the complementary view to NNMF
// that the paper's future work asks for ("possibly identify more types of
// courses"). Where NNMF models courses as mixtures of types, the
// dendrogram shows discrete merge structure and does not require choosing
// k up front.
package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"csmaterials/internal/materials"
)

// Linkage selects how the distance between merged clusters is computed.
type Linkage int

const (
	// Average linkage (UPGMA): mean pairwise distance.
	Average Linkage = iota
	// Single linkage: minimum pairwise distance.
	Single
	// Complete linkage: maximum pairwise distance.
	Complete
)

func (l Linkage) String() string {
	switch l {
	case Average:
		return "average"
	case Single:
		return "single"
	case Complete:
		return "complete"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Node is a dendrogram node: either a leaf (Course != nil) or a merge of
// two children at the recorded height (distance).
type Node struct {
	Course      *materials.Course
	Left, Right *Node
	// Height is the inter-cluster distance at which the merge happened
	// (0 for leaves).
	Height float64
	// Size is the number of leaves underneath.
	Size int
}

// IsLeaf reports whether the node wraps a single course.
func (n *Node) IsLeaf() bool { return n.Course != nil }

// Leaves returns the courses under the node, left to right.
func (n *Node) Leaves() []*materials.Course {
	if n.IsLeaf() {
		return []*materials.Course{n.Course}
	}
	return append(n.Left.Leaves(), n.Right.Leaves()...)
}

// Dendrogram is the result of a hierarchical clustering.
type Dendrogram struct {
	Root    *Node
	Linkage Linkage
}

// Build clusters the courses bottom-up using 1 − Jaccard(tag sets) as the
// distance. Ties break deterministically by course order.
func Build(courses []*materials.Course, linkage Linkage) (*Dendrogram, error) {
	return BuildGroup(materials.NewGroup(courses), linkage)
}

// BuildGroup is Build over an interned course group.
func BuildGroup(g *materials.Group, linkage Linkage) (*Dendrogram, error) {
	courses := g.Courses
	if len(courses) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 courses, got %d", len(courses))
	}
	n := len(courses)
	// Pairwise leaf distances, the upper triangle mirrored.
	dist := make([][]float64, n)
	flat := make([]float64, n*n)
	for i := range dist {
		dist[i] = flat[i*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 1 - jaccard(g.Rows[i], g.Rows[j])
			dist[i][j], dist[j][i] = d, d
		}
	}

	// Active clusters; each remembers its leaf indices for linkage.
	type clusterState struct {
		node   *Node
		leaves []int
	}
	leaves := make([]Node, n)
	index := make([]int, n)
	active := make([]clusterState, n)
	for i, c := range courses {
		leaves[i] = Node{Course: c, Size: 1}
		index[i] = i
		active[i] = clusterState{node: &leaves[i], leaves: index[i : i+1 : i+1]}
	}

	linkDist := func(a, b clusterState) float64 {
		best := math.Inf(1)
		worst := math.Inf(-1)
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
		a, b := active[bi], active[bj]
		merged := clusterState{
			node:   &Node{Left: a.node, Right: b.node, Height: bd, Size: a.node.Size + b.node.Size},
			leaves: append(append(make([]int, 0, len(a.leaves)+len(b.leaves)), a.leaves...), b.leaves...),
		}
		// bi < bj: the rest keep their order, the merge goes last.
		active = slices.Delete(active, bj, bj+1)
		active = append(slices.Delete(active, bi, bi+1), merged)
	}
	return &Dendrogram{Root: active[0].node, Linkage: linkage}, nil
}

// jaccard returns |a ∩ b| / |a ∪ b| for two ascending rows, merging
// them; two empty rows have similarity 1, as in stats.Jaccard.
func jaccard(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// Cut returns the clusters obtained by cutting the dendrogram at the
// given height: the maximal subtrees whose merge height is below it. Each
// cluster is a list of courses; clusters are ordered by size descending.
func (d *Dendrogram) Cut(height float64) [][]*materials.Course {
	var out [][]*materials.Course
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() || n.Height <= height {
			out = append(out, n.Leaves())
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(d.Root)
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0].ID < out[j][0].ID
	})
	return out
}

// CutK cuts the dendrogram into exactly k clusters (the k−1 highest
// merges undone). k must be between 1 and the leaf count.
func (d *Dendrogram) CutK(k int) ([][]*materials.Course, error) {
	if k < 1 || k > d.Root.Size {
		return nil, fmt.Errorf("cluster: k=%d out of range 1..%d", k, d.Root.Size)
	}
	// Collect merge heights, cut just below the k-1-th largest.
	var heights []float64
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		heights = append(heights, n.Height)
		walk(n.Left)
		walk(n.Right)
	}
	walk(d.Root)
	sort.Sort(sort.Reverse(sort.Float64Slice(heights)))
	if k == 1 {
		return d.Cut(math.Inf(1)), nil
	}
	threshold := heights[k-2]
	// Cut strictly below the (k-1)-th largest merge height.
	return d.Cut(threshold - 1e-12), nil
}

// Render draws the dendrogram as indented text, merges annotated with
// their heights — a terminal-sized replacement for a dendrogram plot.
func (d *Dendrogram) Render() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		indent := strings.Repeat("  ", depth)
		if n.IsLeaf() {
			fmt.Fprintf(&b, "%s- %s\n", indent, n.Course.ID)
			return
		}
		fmt.Fprintf(&b, "%s+ merge at %.3f (%d courses)\n", indent, n.Height, n.Size)
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	walk(d.Root, 0)
	return b.String()
}

// CopheneticDistance returns the height at which two courses first join
// the same cluster (their dendrogram distance), or an error for unknown
// IDs.
func (d *Dendrogram) CopheneticDistance(idA, idB string) (float64, error) {
	if idA == idB {
		return 0, nil
	}
	var find func(n *Node) *Node
	contains := func(n *Node, id string) bool {
		for _, c := range n.Leaves() {
			if c.ID == id {
				return true
			}
		}
		return false
	}
	find = func(n *Node) *Node {
		if n.IsLeaf() {
			return nil
		}
		if la := contains(n.Left, idA); la == contains(n.Left, idB) && la {
			return find(n.Left)
		}
		if ra := contains(n.Right, idA); ra == contains(n.Right, idB) && ra {
			return find(n.Right)
		}
		if contains(n, idA) && contains(n, idB) {
			return n
		}
		return nil
	}
	lca := find(d.Root)
	if lca == nil {
		return 0, fmt.Errorf("cluster: courses %q and %q not both in the dendrogram", idA, idB)
	}
	return lca.Height, nil
}
