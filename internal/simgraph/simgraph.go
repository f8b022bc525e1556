// Package simgraph builds the material similarity graph of §3.1.2: the
// materials (queries and results) are vertices, edges are weighted by the
// similarity of their curriculum classifications, and a Multidimensional
// Scaling projection maps the materials to 2D locations where similar
// materials cluster together.
package simgraph

import (
	"fmt"
	"sort"

	"csmaterials/internal/materials"
	"csmaterials/internal/matrix"
	"csmaterials/internal/mds"
	"csmaterials/internal/stats"
)

// Metric selects the set-similarity measure between tag sets.
type Metric int

const (
	// Jaccard similarity |A∩B| / |A∪B|.
	Jaccard Metric = iota
	// Dice similarity 2|A∩B| / (|A|+|B|).
	Dice
)

func (m Metric) String() string {
	switch m {
	case Jaccard:
		return "jaccard"
	case Dice:
		return "dice"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Edge is a weighted undirected edge between two materials.
type Edge struct {
	From, To string
	Weight   float64
}

// Graph is a material similarity graph.
type Graph struct {
	// Materials are the vertices, in input order.
	Materials []*materials.Material
	// Sim is the symmetric similarity matrix aligned with Materials.
	Sim *matrix.Dense
	// Metric records how Sim was computed.
	Metric Metric
}

// Build computes the pairwise similarity graph of the given materials.
func Build(ms []*materials.Material, metric Metric) (*Graph, error) {
	if len(ms) < 2 {
		return nil, fmt.Errorf("simgraph: need at least 2 materials, got %d", len(ms))
	}
	sets := make([]map[string]bool, len(ms))
	for i, m := range ms {
		sets[i] = m.TagSet()
	}
	sim := matrix.New(len(ms), len(ms))
	for i := range ms {
		sim.Set(i, i, 1)
		for j := i + 1; j < len(ms); j++ {
			var s float64
			switch metric {
			case Dice:
				s = stats.Dice(sets[i], sets[j])
			default:
				s = stats.Jaccard(sets[i], sets[j])
			}
			sim.Set(i, j, s)
			sim.Set(j, i, s)
		}
	}
	return &Graph{Materials: ms, Sim: sim, Metric: metric}, nil
}

// Edges returns every edge with weight at least minWeight, sorted by
// descending weight (ties by ID pair).
func (g *Graph) Edges(minWeight float64) []Edge {
	var out []Edge
	n := len(g.Materials)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := g.Sim.At(i, j)
			if w >= minWeight && w > 0 {
				out = append(out, Edge{From: g.Materials[i].ID, To: g.Materials[j].ID, Weight: w})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Weight != out[b].Weight {
			return out[a].Weight > out[b].Weight
		}
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		return out[a].To < out[b].To
	})
	return out
}

// Neighbors returns the k most similar materials to the material at
// index i, sorted by descending similarity.
func (g *Graph) Neighbors(i, k int) []Edge {
	n := len(g.Materials)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("simgraph: index %d out of range %d", i, n))
	}
	var out []Edge
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		out = append(out, Edge{From: g.Materials[i].ID, To: g.Materials[j].ID, Weight: g.Sim.At(i, j)})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Weight != out[b].Weight {
			return out[a].Weight > out[b].Weight
		}
		return out[a].To < out[b].To
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Point is a material placed at a 2D location.
type Point struct {
	Material *materials.Material
	X, Y     float64
}

// Embed projects the graph's materials to 2D with classical MDS over
// 1−similarity distances, then refines with SMACOF. This reproduces the
// search-result map of §3.1.2.
func (g *Graph) Embed(seed int64) ([]Point, error) {
	d, err := mds.DistancesFromSimilarity(g.Sim)
	if err != nil {
		return nil, fmt.Errorf("simgraph: %w", err)
	}
	init, err := mds.Classical(d, 2)
	if err != nil {
		return nil, fmt.Errorf("simgraph: %w", err)
	}
	x, _, err := mds.SMACOF(d, 2, mds.SMACOFOptions{Init: init, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("simgraph: %w", err)
	}
	out := make([]Point, len(g.Materials))
	for i, m := range g.Materials {
		out[i] = Point{Material: m, X: x.At(i, 0), Y: x.At(i, 1)}
	}
	return out, nil
}

// ConnectedComponents returns the vertex indices of each connected
// component of the graph thresholded at minWeight, largest first.
func (g *Graph) ConnectedComponents(minWeight float64) [][]int {
	n := len(g.Materials)
	visited := make([]bool, n)
	var comps [][]int
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		visited[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for u := 0; u < n; u++ {
				if u != v && !visited[u] && g.Sim.At(v, u) >= minWeight && g.Sim.At(v, u) > 0 {
					visited[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}
