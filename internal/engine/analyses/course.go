package analyses

import (
	"context"
	"fmt"
	"net/url"

	"csmaterials/internal/anchor"
	"csmaterials/internal/audit"
	"csmaterials/internal/catalog"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

// CourseParams identifies the course a per-course analysis runs on.
type CourseParams struct {
	Course string
}

func (p CourseParams) Validate() error {
	if p.Course == "" {
		return fmt.Errorf("missing course parameter")
	}
	return nil
}

// CacheKey is the course ID.
func (p CourseParams) CacheKey() string { return p.Course }

// AnchorRec is one §5.2 anchor-point recommendation.
type AnchorRec struct {
	Rule     string   `json:"rule"`
	Title    string   `json:"title"`
	Score    float64  `json:"score"`
	Audience string   `json:"audience"`
	Activity string   `json:"activity"`
	Matched  []string `json:"matched_anchors"`
	Teaches  []string `json:"teaches"`
}

// Anchors recommends PDC anchor points for one course
// (GET /api/v1/courses/{id}/anchors).
type Anchors struct {
	Recommender *anchor.Recommender
}

func (Anchors) Name() string { return "anchors" }

// Scope is the course: the recommender reads its tag set against static
// rule tables.
func (Anchors) Scope(p engine.Params) materials.Scope {
	return materials.Scope{Course: p.(CourseParams).Course}
}

func (Anchors) Parse(v url.Values) (engine.Params, error) {
	id, err := courseParam(v)
	if err != nil {
		return nil, err
	}
	return CourseParams{Course: id}, nil
}

func (a Anchors) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	c, err := lookupCourse(repo, p.(CourseParams).Course)
	if err != nil {
		return nil, err
	}
	recs := a.Recommender.Recommend(c)
	out := make([]AnchorRec, 0, len(recs))
	for _, rc := range recs {
		out = append(out, AnchorRec{
			Rule: rc.Rule.ID, Title: rc.Rule.Title, Score: rc.Score,
			Audience: rc.Rule.Audience, Activity: rc.Rule.Activity,
			Matched: rc.MatchedAnchors, Teaches: rc.Rule.Teaches,
		})
	}
	return out, nil
}

// AuditUnit is one covered CS2013 unit in an audit report.
type AuditUnit struct {
	Unit     string  `json:"unit"`
	Tier     string  `json:"tier"`
	Covered  int     `json:"covered"`
	Total    int     `json:"total"`
	Fraction float64 `json:"fraction"`
}

// AuditResponse is the course audit payload.
type AuditResponse struct {
	Core1Coverage     float64     `json:"core1_coverage"`
	Core2Coverage     float64     `json:"core2_coverage"`
	Units             []AuditUnit `json:"units"`
	PDCCoreCovered    int         `json:"pdc_core_covered"`
	PDCCoreTotal      int         `json:"pdc_core_total"`
	PrerequisiteScore float64     `json:"prerequisite_score"`
}

// Audit reports one course's CS2013 coverage and PDC readiness
// (GET /api/v1/courses/{id}/audit).
type Audit struct{}

func (Audit) Name() string { return "audit" }

// Scope is the course.
func (Audit) Scope(p engine.Params) materials.Scope {
	return materials.Scope{Course: p.(CourseParams).Course}
}

func (Audit) Parse(v url.Values) (engine.Params, error) {
	id, err := courseParam(v)
	if err != nil {
		return nil, err
	}
	return CourseParams{Course: id}, nil
}

func (Audit) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	c, err := lookupCourse(repo, p.(CourseParams).Course)
	if err != nil {
		return nil, err
	}
	rep := audit.Audit(c, ontology.CS2013())
	readiness := audit.AssessPDCReadiness(c)
	// A cached answer keeps units for its life: size it to the units
	// the course covers, not to every unit of the guideline.
	covered := 0
	for _, u := range rep.Units {
		if u.Covered != 0 {
			covered++
		}
	}
	units := make([]AuditUnit, 0, covered)
	for _, u := range rep.Units {
		if u.Covered == 0 {
			continue
		}
		units = append(units, AuditUnit{
			Unit: u.Unit.ID, Tier: u.Tier.String(),
			Covered: u.Covered, Total: u.Total, Fraction: u.Fraction(),
		})
	}
	return &AuditResponse{
		Core1Coverage:     rep.TierCoverage(ontology.TierCore1),
		Core2Coverage:     rep.TierCoverage(ontology.TierCore2),
		Units:             units,
		PDCCoreCovered:    readiness.CoreCovered,
		PDCCoreTotal:      readiness.CoreTotal,
		PrerequisiteScore: readiness.PrerequisiteScore(),
	}, nil
}

// PDCRec is one public-catalog material recommendation.
type PDCRec struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Source string   `json:"source"`
	Score  float64  `json:"score"`
	NewPDC int      `json:"new_pdc_entries"`
	Shared []string `json:"shared_tags"`
}

// PDCMaterialsParams is a course plus a recommendation budget.
type PDCMaterialsParams struct {
	Course string
	Limit  int
}

func (p PDCMaterialsParams) Validate() error {
	if p.Course == "" {
		return fmt.Errorf("missing course parameter")
	}
	return nil
}

// CacheKey is "<course>|<limit>".
func (p PDCMaterialsParams) CacheKey() string { return fmt.Sprintf("%s|%d", p.Course, p.Limit) }

// PDCMaterials recommends public PDC materials for one course
// (GET /api/v1/courses/{id}/pdcmaterials).
type PDCMaterials struct{}

func (PDCMaterials) Name() string { return "pdcmaterials" }

// Scope is the course; the public catalog it draws from is static.
func (PDCMaterials) Scope(p engine.Params) materials.Scope {
	return materials.Scope{Course: p.(PDCMaterialsParams).Course}
}

func (PDCMaterials) Parse(v url.Values) (engine.Params, error) {
	id, err := courseParam(v)
	if err != nil {
		return nil, err
	}
	limit, err := intParam(v, "limit", 10, 1)
	if err != nil {
		return nil, err
	}
	return PDCMaterialsParams{Course: id, Limit: limit}, nil
}

func (PDCMaterials) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	pp := p.(PDCMaterialsParams)
	c, err := lookupCourse(repo, pp.Course)
	if err != nil {
		return nil, err
	}
	recs := catalog.Recommend(c, pp.Limit)
	out := make([]PDCRec, 0, len(recs))
	for _, rc := range recs {
		out = append(out, PDCRec{
			ID: rc.Entry.Material.ID, Title: rc.Entry.Material.Title,
			Source: string(rc.Entry.Source), Score: rc.Score,
			NewPDC: rc.NewPDC, Shared: rc.SharedTags,
		})
	}
	return out, nil
}
