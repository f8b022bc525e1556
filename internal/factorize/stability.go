package factorize

import (
	"fmt"
	"runtime"
	"sync"

	"csmaterials/internal/materials"
	"csmaterials/internal/matrix"
	"csmaterials/internal/nnmf"
)

// Stability quantifies how reproducible an NNMF course typing is across
// random restarts — the paper's §5.3 concern that "the number of courses
// ... is somewhat small and might not accurately reflect the overall
// trend" made operational: if the same courses co-cluster under every
// seed, the typing is trustworthy; if co-assignment is near chance, it
// is an artifact of the initialization.
type Stability struct {
	// Consensus[i][j] is the fraction of runs in which courses i and j
	// shared a dominant type. The diagonal is 1.
	Consensus *matrix.Dense
	// Runs is the number of factorizations performed.
	Runs int
	// Courses labels the consensus rows.
	Courses []*materials.Course
}

// Score returns the consensus dispersion score in [0, 1]: the mean of
// 4·c·(1−c) over off-diagonal consensus values is 0 when every pair
// either always or never co-clusters (perfectly stable) and 1 at coin-
// flip co-assignment. Score returns 1 − that mean, so 1 = stable.
func (s *Stability) Score() float64 {
	n := s.Consensus.Rows()
	if n < 2 {
		return 1
	}
	total, count := 0.0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := s.Consensus.At(i, j)
			total += 4 * c * (1 - c)
			count++
		}
	}
	return 1 - total/float64(count)
}

// StablePairs returns the course index pairs that co-clustered in at
// least the given fraction of runs.
func (s *Stability) StablePairs(minFraction float64) [][2]int {
	var out [][2]int
	n := s.Consensus.Rows()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s.Consensus.At(i, j) >= minFraction {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// AssessStability runs the factorization `runs` times with different
// seeds (opts.Seed, opts.Seed+1000, ...) and accumulates the co-
// assignment consensus matrix. Restarts inside each run are honored.
// The runs are independent and execute concurrently across GOMAXPROCS
// goroutines; the result is deterministic regardless of parallelism.
func AssessStability(courses []*materials.Course, k int, opts nnmf.Options, runs int) (*Stability, error) {
	if runs <= 1 {
		return nil, fmt.Errorf("factorize: stability needs at least 2 runs, got %d", runs)
	}
	if len(courses) == 0 {
		return nil, fmt.Errorf("factorize: no courses")
	}
	csr, _ := materials.CourseMatrix(courses)
	a := csr.ToDense()
	n := len(courses)

	// Fan the independent runs out; collect per-run type assignments in
	// order so accumulation stays deterministic.
	typesPerRun := make([][]int, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			o := opts
			o.K = k
			o.Seed = opts.Seed + int64(r)*1000
			res, err := nnmf.Factorize(a, o)
			if err != nil {
				errs[r] = fmt.Errorf("factorize: stability run %d: %w", r, err)
				return
			}
			types := make([]int, n)
			for i := 0; i < n; i++ {
				types[i] = res.W.ArgMaxRow(i)
			}
			typesPerRun[r] = types
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	consensus := matrix.New(n, n)
	for _, types := range typesPerRun {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if types[i] == types[j] {
					consensus.Set(i, j, consensus.At(i, j)+1)
				}
			}
		}
	}
	consensus = consensus.Scale(1 / float64(runs))
	return &Stability{Consensus: consensus, Runs: runs, Courses: courses}, nil
}
