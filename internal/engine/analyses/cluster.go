package analyses

import (
	"context"
	"fmt"
	"net/url"

	"csmaterials/internal/cluster"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
)

// ClusterResponse is the hierarchical-clustering payload.
type ClusterResponse struct {
	K          int        `json:"k"`
	Linkage    string     `json:"linkage"`
	Clusters   [][]string `json:"clusters"`
	Dendrogram string     `json:"dendrogram"`
}

// ClusterParams selects a course group and a cut size k.
type ClusterParams struct {
	Group string
	K     int
}

func (p ClusterParams) Validate() error {
	return validGroup(p.Group)
}

// CacheKey is "<group>|<k>".
func (p ClusterParams) CacheKey() string { return fmt.Sprintf("%s|%d", p.Group, p.K) }

// Cluster is the agglomerative clustering analysis (GET /api/v1/cluster).
type Cluster struct{}

func (Cluster) Name() string { return "cluster" }

// Scope is the course group.
func (Cluster) Scope(p engine.Params) materials.Scope {
	return materials.Scope{Group: p.(ClusterParams).Group}
}

func (Cluster) Parse(v url.Values) (engine.Params, error) {
	k, err := intParam(v, "k", 4, 1)
	if err != nil {
		return nil, err
	}
	return ClusterParams{Group: normGroup(v.Get("group")), K: k}, nil
}

func (Cluster) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	cp := p.(ClusterParams)
	g, err := groupOf(repo, cp.Group)
	if err != nil {
		return nil, err
	}
	d, err := cluster.BuildGroup(g, cluster.Average) // fails on a one-course group
	if err != nil {
		return nil, engine.Errorf(400, "bad_request", "%s", err.Error())
	}
	clusters, err := d.CutK(cp.K)
	if err != nil {
		return nil, engine.Errorf(400, "bad_request", "%s", err.Error())
	}
	out := make([][]string, len(clusters))
	for i, cl := range clusters {
		out[i] = make([]string, 0, len(cl))
		for _, c := range cl {
			out[i] = append(out[i], c.ID)
		}
	}
	return &ClusterResponse{
		K: cp.K, Linkage: d.Linkage.String(),
		Clusters: out, Dendrogram: d.Render(),
	}, nil
}
