package analyses

// This file implements delta-awareness: how each analysis judges
// whether a classification delta can reach its cached results
// (engine.DeltaAware). An affected result recomputes cold.
//
// Every analysis here reads a course only through its ID, its group
// labels, its position in the repository and its tag set (TagSet(),
// or the course's interned tag row); events
// change none of those but the tag set. So a result is affected
// exactly when a course it reads changed its tag set: AffectedBy reads
// Delta.ChangedGroups and Delta.TagChanges, never the touched-course
// summary. The delta oracle (internal/engine/oracle_test.go) holds
// every migrated entry to a cold recompute.

import (
	"strings"

	"csmaterials/internal/dataset"
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

// AffectedBy scopes agreement results to their course group.
func (Agreement) AffectedBy(paramKey string, d *dataset.Delta) bool {
	return groupAffected(paramGroup(paramKey), d)
}

// AffectedBy scopes cluster results to their course group.
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
// is "<course>|<limit>"; the public catalog itself is static). A course
// ID may contain '|', the limit is an integer, so the key splits at its
// last '|'.
func (PDCMaterials) AffectedBy(paramKey string, d *dataset.Delta) bool {
	if i := strings.LastIndexByte(paramKey, '|'); i >= 0 {
		paramKey = paramKey[:i]
	}
	return courseAffected(paramKey, d)
}

// AffectedBy: figures render the built-in seed corpus, not the
// dataset's repository, so no delta can reach them.
func (Figures) AffectedBy(string, *dataset.Delta) bool { return false }
