package analyses

import (
	"context"
	"errors"
	"fmt"
	"net/url"

	"csmaterials/internal/engine"
	"csmaterials/internal/factorize"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

// CourseType is one course's NNMF typing.
type CourseType struct {
	Course   string    `json:"course"`
	Dominant int       `json:"dominant_type"`
	Shares   []float64 `json:"shares"`
	Evenness float64   `json:"evenness"`
}

// TypeSummary describes one discovered course type.
type TypeSummary struct {
	Label   string             `json:"label"`
	KAShare map[string]float64 `json:"ka_share"`
	TopTags []string           `json:"top_tags"`
}

// TypesResponse is the course-type analysis payload (§4.4).
type TypesResponse struct {
	K          int           `json:"k"`
	Courses    []CourseType  `json:"courses"`
	Types      []TypeSummary `json:"types"`
	Redundancy float64       `json:"redundancy"`

	// iterations is the NNMF work behind this response, summed over
	// every restart; unexported, so it never serializes.
	iterations int
}

// ConvergenceIterations reports the NNMF work behind this response:
// the summed iterations of every restart of its fit.
func (r *TypesResponse) ConvergenceIterations() int { return r.iterations }

// TypesParams selects a course group and the number of types k.
type TypesParams struct {
	Group string
	K     int
}

func (p TypesParams) Validate() error {
	return validGroup(p.Group)
}

// CacheKey is "<group>|<k>".
func (p TypesParams) CacheKey() string { return fmt.Sprintf("%s|%d", p.Group, p.K) }

// Types is the NNMF course-type analysis (GET /api/v1/types).
type Types struct{}

func (Types) Name() string { return "types" }

// Scope is the course group.
func (Types) Scope(p engine.Params) materials.Scope {
	return materials.Scope{Group: p.(TypesParams).Group}
}

// Parse defaults k to the paper's group-specific choice: 3 for the
// single-group analyses, 4 for the all-course factorization.
func (Types) Parse(v url.Values) (engine.Params, error) {
	group := normGroup(v.Get("group"))
	defK := 3
	if group == "all" {
		defK = 4
	}
	k, err := intParam(v, "k", defK, 1)
	if err != nil {
		return nil, err
	}
	return TypesParams{Group: group, K: k}, nil
}

func (Types) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	tp := p.(TypesParams)
	g, err := groupOf(repo, tp.Group)
	if err != nil {
		return nil, err
	}
	model, err := factorize.AnalyzeGroup(ctx, g, tp.K, factorize.PaperOptions(),
		ontology.CS2013(), ontology.PDC12())
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		// Factorization rejections (oversized k, empty groups) are the
		// client's parameters, not a broken compute path.
		return nil, engine.Errorf(400, "bad_request", "%s", err.Error())
	}
	return typesResponse(tp, model), nil
}

// typesResponse derives the API payload from a fitted model; it keeps
// the fit's iteration count, not the model.
func typesResponse(tp TypesParams, model *factorize.Model) *TypesResponse {
	courses := make([]CourseType, 0, len(model.Courses))
	for i, c := range model.Courses {
		courses = append(courses, CourseType{
			Course: c.ID, Dominant: model.DominantType(i),
			Shares: model.TypeShare(i), Evenness: model.Evenness(i),
		})
	}
	types := make([]TypeSummary, tp.K)
	for t := 0; t < tp.K; t++ {
		top := model.TopTags(t, 5)
		topTags := make([]string, len(top))
		for i, tw := range top {
			topTags[i] = tw.Tag
		}
		shares := model.KAShare(t)
		types[t] = TypeSummary{Label: factorize.LabelOf(shares), KAShare: shares, TopTags: topTags}
	}
	return &TypesResponse{K: tp.K, Courses: courses, Types: types, Redundancy: model.Redundancy(), iterations: model.Fit.TotalIterations}
}
