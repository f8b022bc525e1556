package dataset

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"

	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

// Seed is the deterministic seed of the generator. Every build of the
// dataset is identical; the tests and figure harness depend on it.
const Seed = 20231112 // SC-W 2023 opened November 12, 2023

// noiseBuckets partitions the tag universe for idiosyncratic tags: course
// i draws its noise only from bucket i mod noiseBuckets, so noise never
// creates cross-course agreement. Agreement between courses is therefore
// entirely controlled by the archetype mixtures, which is what makes the
// Figure 3/4/6/8 calibrations reliable.
const noiseBuckets = 20

var (
	buildOnce sync.Once
	built     []*materials.Course
	builtRepo *materials.Repository
)

// Courses returns the 20 synthesized courses in Figure 1 order. The
// result is built once and shared; treat it as read-only.
func Courses() []*materials.Course {
	buildOnce.Do(buildAll)
	return built
}

// Repository returns a repository pre-loaded with the 20 courses,
// validating against CS2013 and PDC12.
func Repository() *materials.Repository {
	buildOnce.Do(buildAll)
	return builtRepo
}

// CoursesByID returns the named courses in the given order, panicking on
// unknown IDs (the subsets are hard-coded, so a miss is a bug).
func CoursesByID(ids []string) []*materials.Course {
	repo := Repository()
	out := make([]*materials.Course, len(ids))
	for i, id := range ids {
		c := repo.Course(id)
		if c == nil {
			panic(fmt.Sprintf("dataset: unknown course ID %q", id))
		}
		out[i] = c
	}
	return out
}

func buildAll() {
	archetypes := buildArchetypes()
	universe := tagUniverse()
	built = make([]*materials.Course, len(courseSpecs))
	for i, s := range courseSpecs {
		built[i] = generate(s, i, archetypes, universe)
	}
	builtRepo = materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	if err := builtRepo.AddCourses(built...); err != nil {
		panic(fmt.Sprintf("dataset: generated invalid course: %v", err))
	}
}

// tagUniverse returns the CS2013 leaf IDs eligible as idiosyncratic
// noise. The PD knowledge area is excluded: in the paper's data only the
// PDC courses classify against parallel-computing entries, and a stray
// PD tag on a CS1 course would blur the clean Figure 2 separation.
// PDC12 tags enter exclusively through the PDC archetype.
func tagUniverse() []string {
	var out []string
	for _, l := range ontology.CS2013().Leaves() {
		if a := ontology.AreaOf(l); a != nil && a.ID == "PD" {
			continue
		}
		out = append(out, l.ID)
	}
	return out
}

// courseSeed derives a stable per-course RNG seed from the dataset seed
// and the course ID.
func courseSeed(id string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", Seed, id)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

func bucketOf(tag string) int {
	h := fnv.New32a()
	h.Write([]byte(tag))
	return int(h.Sum32() % noiseBuckets)
}

// generate synthesizes one course: sample archetype tags, add partitioned
// noise, then split the tag set into materials.
func generate(s spec, index int, archetypes map[string]archetype, universe []string) *materials.Course {
	rng := rand.New(rand.NewSource(courseSeed(s.id)))

	// Effective inclusion probability per tag: max over components.
	probs := map[string]float64{}
	for _, comp := range s.mix {
		a, ok := archetypes[comp.arch]
		if !ok {
			panic(fmt.Sprintf("dataset: course %q references unknown archetype %q", s.id, comp.arch))
		}
		for _, tp := range a.tags {
			p := tp.p * comp.weight
			if p > 0.98 {
				p = 0.98
			}
			if p > probs[tp.id] {
				probs[tp.id] = p
			}
		}
	}
	// Deterministic iteration order for sampling.
	ids := make([]string, 0, len(probs))
	for id := range probs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	included := map[string]bool{}
	var tags []string
	for _, id := range ids {
		if rng.Float64() < probs[id] {
			included[id] = true
			tags = append(tags, id)
		}
	}

	// Idiosyncratic tags from this course's private bucket.
	var candidates []string
	for _, t := range universe {
		if !included[t] && bucketOf(t) == index%noiseBuckets {
			candidates = append(candidates, t)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	n := s.noise
	if n > len(candidates) {
		n = len(candidates)
	}
	tags = append(tags, candidates[:n]...)
	sort.Strings(tags)

	return &materials.Course{
		ID:             s.id,
		Name:           s.name,
		Institution:    s.institution,
		Instructor:     s.instructor,
		Group:          s.group,
		SecondaryGroup: s.secondary,
		Materials:      splitIntoMaterials(s, tags, rng),
	}
}

// materialTypes cycles through realistic material kinds; the distribution
// loosely matches CS Materials (lectures dominate, then assignments).
var materialTypes = []materials.MaterialType{
	materials.Lecture, materials.Lecture, materials.Assignment,
	materials.Lecture, materials.Lab, materials.Lecture,
	materials.Assignment, materials.Quiz, materials.Lecture,
	materials.Activity,
}

// splitIntoMaterials distributes a course's tags over materials of 1-3
// tags each, mirroring the granularity of real CS Materials entries
// (~1700 materials over ~30 courses). About a third of the tags are
// covered by a second material as well — a concept both lectured on and
// assessed — so that the §3.1.1 alignment analysis has signal.
func splitIntoMaterials(s spec, tags []string, rng *rand.Rand) []*materials.Material {
	shuffled := append([]string(nil), tags...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	// Duplicate a deterministic subset so some tags span two materials.
	dup := make([]string, 0, len(shuffled)/3)
	for _, t := range shuffled {
		if rng.Float64() < 0.35 {
			dup = append(dup, t)
		}
	}
	shuffled = append(shuffled, dup...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	var out []*materials.Material
	for i := 0; i < len(shuffled); {
		size := 1 + rng.Intn(3)
		if i+size > len(shuffled) {
			size = len(shuffled) - i
		}
		idx := len(out)
		mt := materialTypes[idx%len(materialTypes)]
		seen := map[string]bool{}
		var mTags []string
		for _, t := range shuffled[i : i+size] {
			if !seen[t] {
				seen[t] = true
				mTags = append(mTags, t)
			}
		}
		m := &materials.Material{
			ID:          fmt.Sprintf("%s/m%03d", s.id, idx),
			Title:       fmt.Sprintf("%s — %s %d", shortName(s), mt, idx),
			Type:        mt,
			Author:      s.instructor,
			CourseLevel: string(s.group),
			Tags:        mTags,
		}
		out = append(out, m)
		i += size
	}
	return out
}

func shortName(s spec) string {
	if len(s.name) <= 24 {
		return s.name
	}
	return s.name[:24]
}
