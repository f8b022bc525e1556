package analyses

import (
	"context"
	"fmt"
	"net/url"
	"strconv"

	"csmaterials/internal/agreement"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

// AgreementResponse is the agreement analysis payload (§4.3): per-tag
// course counts summarized at every threshold, with the qualifying
// knowledge areas at the requested one.
type AgreementResponse struct {
	Courses   []string       `json:"courses"`
	Tags      int            `json:"tags"`
	AtLeast   map[string]int `json:"at_least"`
	KASpan    []string       `json:"ka_span"`
	KACounts  map[string]int `json:"ka_counts"`
	Threshold int            `json:"threshold"`
}

// AgreementParams selects a course group and an agreement threshold.
type AgreementParams struct {
	Group     string
	Threshold int
}

// Validate checks the group is known; thresholds were range-checked at
// parse time.
func (p AgreementParams) Validate() error {
	return validGroup(p.Group)
}

// CacheKey is "<group>|<threshold>".
func (p AgreementParams) CacheKey() string {
	return fmt.Sprintf("%s|%d", p.Group, p.Threshold)
}

// Agreement is the tag-agreement analysis (GET /api/v1/agreement).
type Agreement struct{}

func (Agreement) Name() string { return "agreement" }

// Scope is the course group.
func (Agreement) Scope(p engine.Params) materials.Scope {
	return materials.Scope{Group: p.(AgreementParams).Group}
}

func (Agreement) Parse(v url.Values) (engine.Params, error) {
	threshold, err := intParam(v, "threshold", 2, 1)
	if err != nil {
		return nil, err
	}
	return AgreementParams{Group: normGroup(v.Get("group")), Threshold: threshold}, nil
}

// WarmParams: the all-group analysis backs the readiness probe and the
// default request, so it is pre-computed before /readyz flips.
func (Agreement) WarmParams() []engine.Params {
	return []engine.Params{AgreementParams{Group: "all", Threshold: 2}}
}

func (Agreement) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	ap := p.(AgreementParams)
	g, err := groupOf(repo, ap.Group)
	if err != nil {
		return nil, err
	}
	a, err := agreement.AnalyzeGroup(ctx, g, ontology.CS2013(), ontology.PDC12())
	if err != nil {
		return nil, err
	}
	// at_least[k] for every k from one pass over the counts: a tag is in
	// at most len(a.Courses) courses, so exactly[c] tallies them by
	// count and at_least is its suffix sum.
	exactly := make([]int, len(a.Courses)+1)
	for _, c := range a.Counts {
		exactly[c]++
	}
	atLeast := make(map[string]int, len(a.Courses))
	for k, n := len(a.Courses), 0; k >= 2; k-- {
		n += exactly[k]
		atLeast[strconv.Itoa(k)] = n
	}
	// ka_span is the sorted key set of ka_counts: one area pass serves
	// both. Courses is the analysis's exact-size copy of the group's IDs.
	kaCounts := a.KACounts(ap.Threshold)
	return &AgreementResponse{
		Courses:   a.Courses,
		Tags:      a.NumTags(),
		AtLeast:   atLeast,
		KASpan:    agreement.SortedAreas(kaCounts),
		KACounts:  kaCounts,
		Threshold: ap.Threshold,
	}, nil
}
