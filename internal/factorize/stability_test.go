package factorize

import (
	"math"
	"runtime"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/nnmf"
)

func TestAssessStabilityValidation(t *testing.T) {
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	if _, err := AssessStability(courses, 3, nnmf.Options{}, 1); err == nil {
		t.Error("1 run accepted")
	}
	if _, err := AssessStability(nil, 3, nnmf.Options{}, 5); err == nil {
		t.Error("no courses accepted")
	}
}

func TestStabilityConsensusProperties(t *testing.T) {
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	st, err := AssessStability(courses, 3, nnmf.Options{Seed: 1, MaxIter: 200, Restarts: 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := st.Consensus.Rows()
	if n != len(courses) {
		t.Fatalf("consensus dims %d", n)
	}
	for i := 0; i < n; i++ {
		if st.Consensus.At(i, i) != 1 { // lint:exact — self-consensus is exactly 1 by construction
			t.Fatalf("diagonal consensus %v", st.Consensus.At(i, i))
		}
		for j := 0; j < n; j++ {
			v := st.Consensus.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("consensus %v out of range", v)
			}
			if st.Consensus.At(j, i) != v { // lint:exact — symmetric by construction
				t.Fatal("consensus not symmetric")
			}
		}
	}
	score := st.Score()
	if score < 0 || score > 1 {
		t.Fatalf("score %v out of range", score)
	}
}

func TestStabilityHighForWellSeparatedCourses(t *testing.T) {
	// The all-course k=4 typing is strongly structured: PDC, SE, DS, CS1
	// separate under nearly every seed, so stability must be high.
	st, err := AssessStability(dataset.Courses(), 4, nnmf.Options{Seed: 1, MaxIter: 300, Restarts: 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if st.Score() < 0.6 {
		t.Fatalf("all-course typing unstable: score %v", st.Score())
	}
	// The three PDC courses co-cluster in (almost) every run.
	idx := map[string]int{}
	for i, c := range st.Courses {
		idx[c.ID] = i
	}
	for _, pair := range [][2]string{
		{"uncc-3145-saule", "knox-cs309-bunde"},
		{"uncc-3145-saule", "lsu-csc1350-kundu"},
	} {
		if c := st.Consensus.At(idx[pair[0]], idx[pair[1]]); c < 0.9 {
			t.Errorf("PDC pair %v consensus %v, want >= 0.9", pair, c)
		}
	}
	// The two SoftEng courses likewise.
	if c := st.Consensus.At(idx["gsu-csc4350-levine"], idx["uncc-4155-payton"]); c < 0.9 {
		t.Errorf("SE pair consensus %v", c)
	}
}

func TestStablePairs(t *testing.T) {
	st, err := AssessStability(dataset.Courses(), 4, nnmf.Options{Seed: 1, MaxIter: 200, Restarts: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	all := st.StablePairs(0)
	perfect := st.StablePairs(1.0)
	if len(perfect) > len(all) {
		t.Fatal("threshold filtering broken")
	}
	if len(all) != len(st.Courses)*(len(st.Courses)-1)/2 {
		t.Fatalf("StablePairs(0) = %d pairs", len(all))
	}
}

func TestOverfitKLessStableThanRightK(t *testing.T) {
	// For the CS1 set the paper found k=4 to overfit: its typing should
	// be no more stable than k=3's (typically strictly less).
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	opts := nnmf.Options{Seed: 1, MaxIter: 200, Restarts: 2}
	k3, err := AssessStability(courses, 3, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	k4, err := AssessStability(courses, 4, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if k4.Score() > k3.Score()+0.05 {
		t.Fatalf("overfit k=4 (%.3f) markedly more stable than k=3 (%.3f)", k4.Score(), k3.Score())
	}
}

// TestAssessStabilityIndependentOfGOMAXPROCS: the runs fan out across
// GOMAXPROCS goroutines and each run's restarts across idle cores, yet
// the consensus is bit-identical at any CPU count.
func TestAssessStabilityIndependentOfGOMAXPROCS(t *testing.T) {
	at := func(procs int) *Stability {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		st, err := AssessStability(dataset.Courses(), 4, nnmf.Options{Seed: 1, MaxIter: 200, Restarts: 4}, 6)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	one, four := at(1), at(4)
	n := one.Consensus.Rows()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a, b := one.Consensus.At(i, j), four.Consensus.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("consensus[%d,%d] = %v at GOMAXPROCS 1, %v at 4", i, j, a, b)
			}
		}
	}
}
