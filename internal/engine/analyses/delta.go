package analyses

// This file implements delta-awareness: how each analysis judges
// whether a classification delta can reach its cached results
// (engine.DeltaAware), and how the iterative analyses recompute from
// their previous result instead of from scratch (engine.WarmStarter).
//
// Every analysis here reads a course only through its ID, its group
// labels, its position in the repository and its TagSet(); events
// change none of those but the tag set. So a result is affected
// exactly when a course it reads changed its tag set: AffectedBy reads
// Delta.ChangedGroups and Delta.TagChanges, never the touched-course
// summary. The delta oracle (internal/engine/oracle_test.go) holds
// every migrated entry to a cold recompute.

import (
	"context"
	"strings"

	"csmaterials/internal/agreement"
	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
)

// paramGroup extracts the group component of a "<group>|..." cache
// key; keys without a separator are the group itself.
func paramGroup(paramKey string) string {
	if i := strings.IndexByte(paramKey, '|'); i >= 0 {
		return paramKey[:i]
	}
	return paramKey
}

// groupAffected reports whether a delta changed the tag set of a
// course in the group selected by the normalized group name; "all"
// (and any other name) is reached by any course's change. A nil delta
// (no summary available) affects everything.
func groupAffected(group string, d *dataset.Delta) bool {
	switch {
	case d == nil:
		return true
	case group == "dsalgo":
		return d.ChangesGroup("ds") || d.ChangesGroup("algo")
	case group == "cs1" || group == "ds" || group == "pdc":
		return d.ChangesGroup(group)
	default: // "all", "", unrecognized
		return len(d.TagChanges) > 0
	}
}

// courseAffected reports whether a delta changed the course's tag set.
func courseAffected(course string, d *dataset.Delta) bool {
	return d == nil || d.ChangesTagSet(course)
}

// AffectedBy scopes types results to their course group.
func (Types) AffectedBy(paramKey string, d *dataset.Delta) bool {
	return groupAffected(paramGroup(paramKey), d)
}

// ComputeWarm adopts the prior of a same-revision stale refresh (d nil):
// the repository is the prior's, so a cold fit would return the prior's
// bytes. The adopted copy reports no iterations — it ran none. With a
// delta it declines: AffectedBy dropped the prior only because a course
// in the group changed its tag set, so the matrix changed and the fit
// runs cold.
func (Types) ComputeWarm(_ context.Context, _ *materials.Repository, _ engine.Params, prior interface{}, d *dataset.Delta) (interface{}, error) {
	pr, ok := prior.(*TypesResponse)
	if !ok || d != nil {
		return nil, engine.ErrColdCompute
	}
	adopted := *pr
	adopted.iterations = 0
	return &adopted, nil
}

// WarmsWithinRevisionOnly marks Types as an engine.RevisionWarmer:
// ComputeWarm declines every prior that carries a delta, so ApplyDelta
// seeds none.
func (Types) WarmsWithinRevisionOnly() {}

// AffectedBy scopes agreement results to their course group.
func (Agreement) AffectedBy(paramKey string, d *dataset.Delta) bool {
	return groupAffected(paramGroup(paramKey), d)
}

// ComputeWarm rebases the prior tag counts over the delta's per-course
// tag-set changes — exact integer arithmetic, so the result matches a
// full rescan of the new revision byte for byte. Group membership
// changes or a stale change set decline to cold.
func (Agreement) ComputeWarm(ctx context.Context, repo *materials.Repository, p engine.Params, prior interface{}, d *dataset.Delta) (interface{}, error) {
	ap := p.(AgreementParams)
	pr, ok := prior.(*AgreementResponse)
	if !ok || pr.analysis == nil {
		return nil, engine.ErrColdCompute
	}
	ids, err := groupCourseIDs(repo, ap.Group)
	if err != nil {
		return nil, engine.ErrColdCompute
	}
	changes := map[string]agreement.TagChange{}
	if d != nil {
		for id, tc := range d.TagChanges {
			changes[id] = agreement.TagChange{Added: tc.Added, Removed: tc.Removed}
		}
	}
	a, err := pr.analysis.Rebase(coursesByID(repo, ids), changes)
	if err != nil {
		return nil, engine.ErrColdCompute
	}
	return agreementResponse(ap, ids, a), nil
}

// AffectedBy scopes cluster results to their course group. Clustering
// has no incremental form here, so affected results recompute cold.
func (Cluster) AffectedBy(paramKey string, d *dataset.Delta) bool {
	return groupAffected(paramGroup(paramKey), d)
}

// AffectedBy scopes anchor recommendations to their course: the
// recommender reads one course's tag set against static rule tables.
func (Anchors) AffectedBy(paramKey string, d *dataset.Delta) bool {
	return courseAffected(paramKey, d)
}

// AffectedBy scopes audits to their course.
func (Audit) AffectedBy(paramKey string, d *dataset.Delta) bool {
	return courseAffected(paramKey, d)
}

// AffectedBy scopes catalog recommendations to their course (the key
// is "<course>|<limit>"; the public catalog itself is static).
func (PDCMaterials) AffectedBy(paramKey string, d *dataset.Delta) bool {
	return courseAffected(paramGroup(paramKey), d)
}

// AffectedBy: figures render the built-in seed corpus, not the
// dataset's repository, so no delta can reach them.
func (Figures) AffectedBy(string, *dataset.Delta) bool { return false }
