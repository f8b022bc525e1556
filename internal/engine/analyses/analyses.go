// Package analyses registers the system's concrete analyses — the
// agreement, course-type, clustering, anchor-recommendation, audit,
// PDC-material, and figure computations of the paper — as
// engine.Analysis implementations. The HTTP server, the batch
// endpoint, the CLIs, and the examples all invoke these through an
// engine.Registry; none of them wires an analysis by hand.
package analyses

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"csmaterials/internal/anchor"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

// Default builds the full registry of paper analyses over the
// synthesized dataset's guidelines.
func Default() (*engine.Registry, error) {
	rec, err := anchor.NewRecommender(ontology.CS2013(), ontology.PDC12())
	if err != nil {
		return nil, err
	}
	return engine.NewRegistry(
		Agreement{},
		Types{},
		Cluster{},
		Anchors{Recommender: rec},
		Audit{},
		PDCMaterials{},
		Figures{},
	), nil
}

// validGroup checks a normalized group name against materials.Groups.
// It is the parameter-validation half of group resolution: membership
// (Course.InGroup) is resolved by the executor, which hands Compute a
// repository restricted to the group's courses.
func validGroup(group string) error {
	if !slices.Contains(materials.Groups, group) {
		return fmt.Errorf("unknown group %q", group)
	}
	return nil
}

// groupOf returns the courses of repo, which holds exactly group's
// members, with their tag rows. A group with no members in this
// dataset is a 404, not an empty analysis.
func groupOf(repo *materials.Repository, group string) (*materials.Group, error) {
	var ids []string
	for _, c := range repo.Courses() {
		ids = append(ids, c.ID)
	}
	if len(ids) == 0 {
		return nil, engine.Errorf(404, "not_found", "no courses in group %q", group)
	}
	return repo.Group(ids), nil
}

// normGroup canonicalizes the group parameter for cache keys: groups
// are case-insensitive and default to "all".
func normGroup(group string) string {
	g := strings.ToLower(group)
	if g == "" {
		g = "all"
	}
	return g
}

// intParam parses an integer query value, returning def when absent
// and an error when malformed or below min.
func intParam(v url.Values, name string, def, min int) (int, error) {
	s := v.Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < min {
		return 0, fmt.Errorf("bad %s %q: want integer >= %d", name, s, min)
	}
	return n, nil
}

// courseParam reads the required course ID shared by the per-course
// analyses (anchors, audit, pdcmaterials).
func courseParam(v url.Values) (string, error) {
	id := v.Get("course")
	if id == "" {
		return "", fmt.Errorf("missing course parameter")
	}
	return id, nil
}

// lookupCourse resolves a course ID, producing the API's canonical
// 404 envelope for unknown IDs.
func lookupCourse(repo *materials.Repository, id string) (*materials.Course, error) {
	c := repo.Course(id)
	if c == nil {
		return nil, engine.Errorf(404, "not_found", "unknown course %q", id)
	}
	return c, nil
}
