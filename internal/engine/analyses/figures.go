package analyses

import (
	"context"
	"fmt"
	"net/url"

	"csmaterials/internal/core"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
)

// FiguresParams identifies one paper figure.
type FiguresParams struct {
	ID string
}

func (p FiguresParams) Validate() error {
	if p.ID == "" {
		return fmt.Errorf("missing figure id")
	}
	return nil
}

// CacheKey is the figure ID.
func (p FiguresParams) CacheKey() string { return p.ID }

// Figures regenerates one paper figure (GET /api/v1/figures/{id}). The
// computed value is a *core.Artifact: text rendering plus named SVGs.
type Figures struct{}

func (Figures) Name() string { return "figures" }

// Scope is no course: figures render the built-in seed corpus, not the
// dataset's.
func (Figures) Scope(engine.Params) materials.Scope { return materials.Scope{} }

func (Figures) Parse(v url.Values) (engine.Params, error) {
	return FiguresParams{ID: v.Get("id")}, nil
}

func (Figures) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	id := p.(FiguresParams).ID
	for _, f := range core.Figures() {
		if f.ID == id {
			return f.Gen()
		}
	}
	return nil, engine.Errorf(404, "not_found", "unknown figure %q", id)
}
