package simgraph

import (
	"math"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
)

func mat(id string, tags ...string) *materials.Material {
	return &materials.Material{ID: id, Title: id, Type: materials.Lecture, Tags: tags}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]*materials.Material{mat("a", "x")}, Jaccard); err == nil {
		t.Fatal("single material accepted")
	}
}

func TestSimilarityValues(t *testing.T) {
	ms := []*materials.Material{
		mat("a", "x", "y"),
		mat("b", "y", "z"),
		mat("c", "p", "q"),
	}
	g, err := Build(ms, Jaccard)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Sim.At(0, 1); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("sim(a,b) = %v", got)
	}
	if got := g.Sim.At(0, 2); got != 0 {
		t.Fatalf("sim(a,c) = %v", got)
	}
	for i := 0; i < 3; i++ {
		if g.Sim.At(i, i) != 1 { // lint:exact — self-similarity is exactly 1 by construction
			t.Fatal("self-similarity must be 1")
		}
	}
	// Dice metric differs.
	g2, err := Build(ms, Dice)
	if err != nil {
		t.Fatal(err)
	}
	if got := g2.Sim.At(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("dice(a,b) = %v", got)
	}
}

func TestEdgesThresholdAndOrder(t *testing.T) {
	ms := []*materials.Material{
		mat("a", "x", "y"),
		mat("b", "x", "y"),
		mat("c", "y", "z"),
		mat("d", "unrelated"),
	}
	g, _ := Build(ms, Jaccard)
	edges := g.Edges(0.3)
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	if edges[0].From != "a" || edges[0].To != "b" || edges[0].Weight != 1 { // lint:exact — identical tag sets weigh exactly 1
		t.Fatalf("strongest edge = %+v", edges[0])
	}
	for i := 1; i < len(edges); i++ {
		if edges[i].Weight > edges[i-1].Weight {
			t.Fatal("edges not sorted by weight")
		}
	}
	// Zero-weight pairs are never emitted even at threshold 0.
	for _, e := range g.Edges(0) {
		if e.Weight == 0 {
			t.Fatal("zero-weight edge emitted")
		}
	}
}

func TestNeighbors(t *testing.T) {
	ms := []*materials.Material{
		mat("a", "x", "y"),
		mat("b", "x", "y"),
		mat("c", "y"),
		mat("d", "q"),
	}
	g, _ := Build(ms, Jaccard)
	nb := g.Neighbors(0, 2)
	if len(nb) != 2 {
		t.Fatalf("neighbors = %v", nb)
	}
	if nb[0].To != "b" {
		t.Fatalf("nearest neighbor of a = %s", nb[0].To)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index must panic")
		}
	}()
	g.Neighbors(99, 1)
}

func TestEmbedClustersSimilarMaterials(t *testing.T) {
	ms := []*materials.Material{
		mat("a1", "x", "y", "z"),
		mat("a2", "x", "y", "w"),
		mat("b1", "p", "q", "r"),
		mat("b2", "p", "q", "s"),
	}
	g, _ := Build(ms, Jaccard)
	pts, err := g.Embed(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	dist := func(i, j int) float64 {
		dx, dy := pts[i].X-pts[j].X, pts[i].Y-pts[j].Y
		return math.Hypot(dx, dy)
	}
	if dist(0, 1) >= dist(0, 2) || dist(2, 3) >= dist(1, 3) {
		t.Fatalf("similar materials not clustered: within %v/%v, across %v/%v",
			dist(0, 1), dist(2, 3), dist(0, 2), dist(1, 3))
	}
}

func TestConnectedComponents(t *testing.T) {
	ms := []*materials.Material{
		mat("a", "x", "y"),
		mat("b", "x", "y"),
		mat("c", "p"),
		mat("d", "p"),
		mat("e", "lonely"),
	}
	g, _ := Build(ms, Jaccard)
	comps := g.ConnectedComponents(0.5)
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 2 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
}

func TestGraphOnDatasetMaterials(t *testing.T) {
	// Build a graph over one real course's materials: it must be
	// connected at threshold 0 (self-course materials share tags rarely,
	// so just check shape and symmetry).
	repo := dataset.Repository()
	ms := repo.Course("uncc-2214-krs").Materials[:20]
	g, err := Build(ms, Jaccard)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ms)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g.Sim.At(i, j) != g.Sim.At(j, i) { // lint:exact — symmetric by construction
				t.Fatal("similarity not symmetric")
			}
			if g.Sim.At(i, j) < 0 || g.Sim.At(i, j) > 1 {
				t.Fatal("similarity out of range")
			}
		}
	}
}

func TestMetricString(t *testing.T) {
	if Jaccard.String() != "jaccard" || Dice.String() != "dice" || Metric(9).String() == "" {
		t.Fatal("Metric.String wrong")
	}
}
