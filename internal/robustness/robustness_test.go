package robustness

import (
	"math"
	"runtime"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/factorize"
	"csmaterials/internal/nnmf"
	"csmaterials/internal/ontology"
)

func TestPerturbZeroNoiseIsIdentity(t *testing.T) {
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	perturbed := Perturb(courses, Perturbation{DropRate: 0, AddRate: 0, Seed: 1})
	for i, c := range courses {
		want := c.SortedTags()
		got := perturbed[i].SortedTags()
		if len(want) != len(got) {
			t.Fatalf("course %s: %d tags became %d under zero noise", c.ID, len(want), len(got))
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("course %s tag %d changed under zero noise", c.ID, j)
			}
		}
	}
}

func TestPerturbDoesNotMutateOriginals(t *testing.T) {
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	before := make([]int, len(courses))
	for i, c := range courses {
		before[i] = len(c.TagSet())
	}
	Perturb(courses, Perturbation{DropRate: 0.5, AddRate: 0.5, Seed: 2})
	for i, c := range courses {
		if len(c.TagSet()) != before[i] {
			t.Fatalf("original course %s mutated", c.ID)
		}
	}
}

func TestPerturbDropsAndAdds(t *testing.T) {
	courses := dataset.CoursesByID(dataset.DSCourseIDs())
	perturbed := Perturb(courses, Perturbation{DropRate: 0.3, AddRate: 0, Seed: 3})
	for i, c := range courses {
		nb, np := len(c.TagSet()), len(perturbed[i].TagSet())
		if np >= nb {
			t.Fatalf("course %s: drop rate 0.3 did not shrink tags (%d -> %d)", c.ID, nb, np)
		}
		if float64(np) < 0.5*float64(nb) {
			t.Fatalf("course %s: dropped far more than the rate (%d -> %d)", c.ID, nb, np)
		}
	}
	added := Perturb(courses, Perturbation{DropRate: 0, AddRate: 0.4, Seed: 4})
	for i, c := range courses {
		if len(added[i].TagSet()) <= len(c.TagSet()) {
			t.Fatalf("course %s: add rate did not grow tags", c.ID)
		}
	}
}

func TestPerturbDeterministic(t *testing.T) {
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	a := Perturb(courses, Perturbation{DropRate: 0.2, AddRate: 0.1, Seed: 5})
	b := Perturb(courses, Perturbation{DropRate: 0.2, AddRate: 0.1, Seed: 5})
	for i := range a {
		ta, tb := a[i].SortedTags(), b[i].SortedTags()
		if len(ta) != len(tb) {
			t.Fatal("same seed produced different perturbations")
		}
		for j := range ta {
			if ta[j] != tb[j] {
				t.Fatal("same seed produced different perturbations")
			}
		}
	}
}

func TestPerturbedCoursesStayValid(t *testing.T) {
	courses := dataset.Courses()
	perturbed := Perturb(courses, Perturbation{DropRate: 0.4, AddRate: 0.3, Seed: 6})
	for _, c := range perturbed {
		if err := c.Validate(); err != nil {
			t.Fatalf("perturbed course invalid: %v", err)
		}
		if len(c.TagSet()) == 0 {
			t.Fatalf("course %s lost all tags", c.ID)
		}
	}
}

func TestTypingAgreementIdenticalInputs(t *testing.T) {
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	agree, err := TypingAgreement(courses, courses, 3, factorize.PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	if agree != 1 { // lint:exact — identical typings agree at exactly 1
		t.Fatalf("self-agreement = %v, want 1", agree)
	}
}

func TestTypingAgreementMismatchedInputs(t *testing.T) {
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	if _, err := TypingAgreement(courses, courses[:3], 3, factorize.PaperOptions()); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestFindingsRobustToMildNoise(t *testing.T) {
	// The paper's qualitative conclusions should survive mild
	// classification noise: at 10% drops the course typing stays mostly
	// intact.
	courses := dataset.Courses()
	perturbed := Perturb(courses, Perturbation{DropRate: 0.1, AddRate: 0.05, Seed: 7})
	agree, err := TypingAgreement(courses, perturbed, 4, factorize.PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	if agree < 0.8 {
		t.Fatalf("typing agreement %v under mild noise; findings too fragile", agree)
	}
}

func TestAgreementDriftSmallUnderMildNoise(t *testing.T) {
	courses := dataset.CoursesByID(dataset.DSCourseIDs())
	perturbed := Perturb(courses, Perturbation{DropRate: 0.05, AddRate: 0, Seed: 8})
	drift, err := AgreementDrift(courses, perturbed, ontology.CS2013(), ontology.PDC12())
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) == 0 {
		t.Fatal("no drift data")
	}
	// 5% drops can only shrink agreement, and not catastrophically.
	for k, d := range drift {
		if d > 0.001 {
			t.Errorf("agreement at >=%d grew (%v) under pure drops", k, d)
		}
		if d < -0.5 {
			t.Errorf("agreement at >=%d collapsed (%v) under 5%% drops", k, d)
		}
	}
}

func TestSweepMonotoneTrend(t *testing.T) {
	// Typing agreement at zero noise is 1 and decreases (weakly, with
	// tolerance for trial variance) as noise grows.
	courses := dataset.Courses()
	results, err := Sweep(courses, 4, factorize.PaperOptions(), []float64{0, 0.2, 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("sweep points = %d", len(results))
	}
	if results[0].Typing != 1 { // lint:exact — identical typings agree at exactly 1
		t.Fatalf("zero-noise typing = %v, want 1", results[0].Typing)
	}
	if results[2].Typing > results[0].Typing {
		t.Fatal("typing agreement did not degrade with heavy noise")
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Sweep(dataset.Courses(), 4, factorize.PaperOptions(), []float64{0.1}, 0); err == nil {
		t.Fatal("zero trials accepted")
	}
}

// TestSweepIndependentOfGOMAXPROCS: the (rate, trial) cells fan out
// across GOMAXPROCS goroutines and each fit's restarts across idle
// cores, yet the sweep is bit-identical at any CPU count.
func TestSweepIndependentOfGOMAXPROCS(t *testing.T) {
	at := func(procs int) []SweepResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := Sweep(dataset.Courses(), 4, nnmf.Options{Seed: 1, MaxIter: 200, Restarts: 4}, []float64{0.1, 0.3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := at(1), at(4)
	for i := range one {
		if math.Float64bits(one[i].Typing) != math.Float64bits(four[i].Typing) {
			t.Fatalf("drop rate %v: typing %v at GOMAXPROCS 1, %v at 4", one[i].DropRate, one[i].Typing, four[i].Typing)
		}
	}
}
