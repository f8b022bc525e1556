// Package robustness quantifies how sensitive the paper's findings are to
// classification noise — the threat §5.3 names: workshop participants
// classified their own materials, the tree structure may bias what they
// tag, and coverage depth is ignored. The analysis perturbs each course's
// tag set (random drops and random additions at a given rate), reruns the
// NNMF typing and the agreement analysis, and reports how much the
// conclusions move.
package robustness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"csmaterials/internal/agreement"
	"csmaterials/internal/materials"
	"csmaterials/internal/nnmf"
	"csmaterials/internal/ontology"
)

// Perturbation configures the classification-noise model.
type Perturbation struct {
	// DropRate is the probability that an existing tag is removed (the
	// instructor under-classified).
	DropRate float64
	// AddRate is the expected number of spurious tags added per course,
	// expressed as a fraction of the course's tag count (the instructor
	// over-classified, e.g. tagged a whole knowledge unit).
	AddRate float64
	// Seed drives the perturbation RNG.
	Seed int64
	// Universe is the tag pool additions are drawn from; defaults to the
	// CS2013 leaves.
	Universe []string
}

// Perturb returns noisy copies of the courses under the given model. The
// originals are not modified. Materials are rebuilt with one material per
// 1-3 tags so the result is a valid course.
func Perturb(courses []*materials.Course, p Perturbation) []*materials.Course {
	rng := rand.New(rand.NewSource(p.Seed))
	universe := p.Universe
	if universe == nil {
		for _, l := range ontology.CS2013().Leaves() {
			universe = append(universe, l.ID)
		}
	}
	out := make([]*materials.Course, len(courses))
	for ci, c := range courses {
		tags := c.SortedTags()
		kept := make(map[string]bool, len(tags))
		for _, t := range tags {
			if rng.Float64() >= p.DropRate {
				kept[t] = true
			}
		}
		additions := int(p.AddRate * float64(len(tags)))
		for i := 0; i < additions; i++ {
			kept[universe[rng.Intn(len(universe))]] = true
		}
		var newTags []string
		for t := range kept {
			newTags = append(newTags, t)
		}
		sort.Strings(newTags)
		if len(newTags) == 0 {
			// A fully-dropped course would break the matrix build; keep
			// one original tag.
			newTags = tags[:1]
		}
		out[ci] = rebuild(c, newTags, rng)
	}
	return out
}

func rebuild(c *materials.Course, tags []string, rng *rand.Rand) *materials.Course {
	cp := &materials.Course{
		ID: c.ID, Name: c.Name, Institution: c.Institution,
		Instructor: c.Instructor, Group: c.Group, SecondaryGroup: c.SecondaryGroup,
	}
	shuffled := append([]string(nil), tags...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for i := 0; i < len(shuffled); {
		size := 1 + rng.Intn(3)
		if i+size > len(shuffled) {
			size = len(shuffled) - i
		}
		cp.Materials = append(cp.Materials, &materials.Material{
			ID:    fmt.Sprintf("%s/p%03d", c.ID, len(cp.Materials)),
			Title: fmt.Sprintf("%s perturbed %d", c.ID, len(cp.Materials)),
			Type:  materials.Lecture,
			Tags:  append([]string(nil), shuffled[i:i+size]...),
		})
		i += size
	}
	return cp
}

// TypingAgreement measures how much an NNMF course typing survives the
// perturbation: the fraction of course pairs whose co-clustering relation
// (same dominant type or not) is identical between the baseline and the
// perturbed run. 1 means the typing is unchanged; 0.5 is chance level for
// balanced types.
func TypingAgreement(baseline, perturbed []*materials.Course, k int, opts nnmf.Options) (float64, error) {
	if len(baseline) != len(perturbed) {
		return 0, fmt.Errorf("robustness: course count mismatch %d vs %d", len(baseline), len(perturbed))
	}
	typesOf := func(cs []*materials.Course) ([]int, error) {
		a, _ := materials.CourseMatrix(cs)
		o := opts
		o.K = k
		res, err := nnmf.Factorize(a.ToDense(), o)
		if err != nil {
			return nil, err
		}
		out := make([]int, len(cs))
		for i := range cs {
			out[i] = res.W.ArgMaxRow(i)
		}
		return out, nil
	}
	tb, err := typesOf(baseline)
	if err != nil {
		return 0, err
	}
	tp, err := typesOf(perturbed)
	if err != nil {
		return 0, err
	}
	n := len(tb)
	if n < 2 {
		return 1, nil
	}
	same := 0
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			if (tb[i] == tb[j]) == (tp[i] == tp[j]) {
				same++
			}
		}
	}
	return float64(same) / float64(total), nil
}

// AgreementDrift measures how much the Figure 3 statistics move under
// perturbation: it returns the relative change in the number of tags at
// each agreement threshold from 2 to the course count.
func AgreementDrift(baseline, perturbed []*materials.Course, guidelines ...*ontology.Guideline) (map[int]float64, error) {
	ab, err := agreement.Analyze(baseline, guidelines...)
	if err != nil {
		return nil, err
	}
	ap, err := agreement.Analyze(perturbed, guidelines...)
	if err != nil {
		return nil, err
	}
	out := map[int]float64{}
	for k := 2; k <= len(baseline); k++ {
		b := ab.AtLeast(k)
		p := ap.AtLeast(k)
		if b == 0 {
			out[k] = 0
			continue
		}
		out[k] = float64(p-b) / float64(b)
	}
	return out, nil
}

// SweepResult is one point of a noise sweep.
type SweepResult struct {
	DropRate float64
	// Typing is the mean pairwise typing agreement across trials.
	Typing float64
	// Trials is the number of perturbation trials averaged.
	Trials int
}

// Sweep runs TypingAgreement across a range of drop rates (AddRate fixed
// to half the drop rate), averaging several trials per point — the
// sensitivity curve of the course-typing result. All (rate, trial) cells
// are independent and run concurrently across GOMAXPROCS goroutines; the
// result is deterministic regardless of parallelism.
func Sweep(courses []*materials.Course, k int, opts nnmf.Options, dropRates []float64, trials int) ([]SweepResult, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("robustness: trials must be positive")
	}
	agreeByCell := make([][]float64, len(dropRates))
	errByCell := make([][]error, len(dropRates))
	for i := range dropRates {
		agreeByCell[i] = make([]float64, trials)
		errByCell[i] = make([]error, trials)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for ri, dr := range dropRates {
		for trial := 0; trial < trials; trial++ {
			wg.Add(1)
			go func(ri, trial int, dr float64) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				perturbed := Perturb(courses, Perturbation{
					DropRate: dr,
					AddRate:  dr / 2,
					Seed:     opts.Seed + int64(trial)*7919,
				})
				agreeByCell[ri][trial], errByCell[ri][trial] = TypingAgreement(courses, perturbed, k, opts)
			}(ri, trial, dr)
		}
	}
	wg.Wait()
	var out []SweepResult
	for ri, dr := range dropRates {
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			if err := errByCell[ri][trial]; err != nil {
				return nil, err
			}
			sum += agreeByCell[ri][trial]
		}
		out = append(out, SweepResult{DropRate: dr, Typing: sum / float64(trials), Trials: trials})
	}
	return out, nil
}
