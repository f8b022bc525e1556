package nnmf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/matrix"
)

// This file keeps the allocating CSR factorization exactly as it stood
// before the shared loops and their workspace — its own restart loop,
// iteration loop, and a fresh matrix for every product — as the oracle
// the differential tests hold FactorizeCSR to, bit for bit.

func oracleFactorizeCSR(a *matrix.CSR, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	rows, cols := a.Dims()
	normA := a.FrobeniusNorm()
	mean := normA * normA / float64(rows*cols)

	restarts := opts.Restarts
	if opts.Init == InitNNDSVD {
		restarts = 1
	}
	var best *Result
	total := 0
	for r := 0; r < restarts; r++ {
		var w, h *matrix.Dense
		if opts.Init == InitNNDSVD {
			w, h = nndsvd(a.ToDense(), opts.K)
		} else {
			rng := rand.New(rand.NewSource(opts.Seed + int64(r)))
			scale := math.Sqrt(mean / float64(opts.K))
			w = matrix.Random(rows, opts.K, rng).Scale(scale)
			h = matrix.Random(opts.K, cols, rng).Scale(scale)
		}
		res := oracleRunSparse(a, w, h, opts, normA)
		res.Restart = r
		total += res.Iterations
		if best == nil || res.Err < best.Err {
			best = res
		}
	}
	best.TotalIterations = total
	return best, nil
}

func oracleRunSparse(a *matrix.CSR, w, h *matrix.Dense, opts Options, normA float64) *Result {
	res := &Result{}
	prev := math.Inf(1)
	init := 0.0
	for it := 0; it < opts.MaxIter; it++ {
		w, h = stepFrobeniusSparse(a, w, h, opts.Eps)
		err := sparseRelativeError(a, w, h, normA)
		res.Residuals = append(res.Residuals, err)
		res.Iterations = it + 1
		if it == 0 {
			init = err
		} else if prev-err <= opts.Tol*init {
			res.Converged = true
			break
		}
		prev = err
	}
	res.W, res.H = w, h
	res.Err = res.Residuals[len(res.Residuals)-1]
	return res
}

func stepFrobeniusSparse(a *matrix.CSR, w, h *matrix.Dense, eps float64) (*matrix.Dense, *matrix.Dense) {
	wtA := a.MulAtB(w).T() // (AᵀW)ᵀ = WᵀA, k × cols
	wtWH := w.MulAtB(w).Mul(h)
	h = h.MulElem(wtA.DivElem(wtWH, eps))

	aHt := a.MulABt(h) // rows × k
	wHHt := w.Mul(h.MulABt(h))
	w = w.MulElem(aHt.DivElem(wHHt, eps))
	return w, h
}

func sparseRelativeError(a *matrix.CSR, w, h *matrix.Dense, normA float64) float64 {
	dot := a.InnerWithProduct(w, h)
	wtw := w.MulAtB(w)
	hht := h.MulABt(h)
	k := wtw.Rows()
	trace := 0.0
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			trace += wtw.At(i, j) * hht.At(i, j)
		}
	}
	errSq := normA*normA - 2*dot + trace
	if errSq < 0 {
		errSq = 0
	}
	return math.Sqrt(errSq) / normA
}

// sameBits reports the first difference between two results, comparing
// every float by its bit pattern; "" means identical.
func sameBits(got, want *Result) string {
	if got.Iterations != want.Iterations || got.TotalIterations != want.TotalIterations ||
		got.Restart != want.Restart || got.Converged != want.Converged {
		return fmt.Sprintf("counters: iterations %d/%d total %d/%d restart %d/%d converged %v/%v",
			got.Iterations, want.Iterations, got.TotalIterations, want.TotalIterations,
			got.Restart, want.Restart, got.Converged, want.Converged)
	}
	if math.Float64bits(got.Err) != math.Float64bits(want.Err) {
		return fmt.Sprintf("Err %v vs %v", got.Err, want.Err)
	}
	if len(got.Residuals) != len(want.Residuals) {
		return fmt.Sprintf("%d residuals vs %d", len(got.Residuals), len(want.Residuals))
	}
	for i, v := range got.Residuals {
		if math.Float64bits(v) != math.Float64bits(want.Residuals[i]) {
			return fmt.Sprintf("Residuals[%d] %v vs %v", i, v, want.Residuals[i])
		}
	}
	for name, pair := range map[string][2]*matrix.Dense{"W": {got.W, want.W}, "H": {got.H, want.H}} {
		g, w := pair[0], pair[1]
		if gr, gc := g.Dims(); gr != w.Rows() || gc != w.Cols() {
			return fmt.Sprintf("%s dims %dx%d vs %dx%d", name, gr, gc, w.Rows(), w.Cols())
		}
		for i := 0; i < g.Rows(); i++ {
			wi := w.RowView(i)
			for j, v := range g.RowView(i) {
				if math.Float64bits(v) != math.Float64bits(wi[j]) {
					return fmt.Sprintf("%s[%d,%d] %v vs %v", name, i, j, v, wi[j])
				}
			}
		}
	}
	return ""
}

// checkAgainstOracle factorizes a through FactorizeCSR and the oracle
// and fails on any bit of difference.
func checkAgainstOracle(t *testing.T, name string, a *matrix.CSR, opts Options) *Result {
	t.Helper()
	want, err := oracleFactorizeCSR(a, opts)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	got, err := FactorizeCSR(a, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if diff := sameBits(got, want); diff != "" {
		t.Fatalf("%s: differs from the oracle: %s", name, diff)
	}
	return got
}

// seedGroups returns the seed corpus's course matrices for the five
// course groups the types analysis serves.
func seedGroups() map[string]*matrix.Dense {
	in := map[string]func(*materials.Course) bool{
		"all": func(*materials.Course) bool { return true },
		"cs1": func(c *materials.Course) bool { return c.HasGroup(materials.GroupCS1) },
		"ds":  func(c *materials.Course) bool { return c.HasGroup(materials.GroupDS) },
		"dsalgo": func(c *materials.Course) bool {
			return c.HasGroup(materials.GroupDS) || c.HasGroup(materials.GroupAlgo)
		},
		"pdc": func(c *materials.Course) bool { return c.HasGroup(materials.GroupPDC) },
	}
	out := map[string]*matrix.Dense{}
	for name, member := range in {
		var courses []*materials.Course
		for _, c := range dataset.Courses() {
			if member(c) {
				courses = append(courses, c)
			}
		}
		a, _ := materials.CourseMatrix(courses)
		out[name] = a.ToDense()
	}
	return out
}

// TestCSRMatchesOracleOnSeedGroups covers the served configuration: the
// paper's 10-restart run on every seed-corpus group at k = 2, 3, 4.
func TestCSRMatchesOracleOnSeedGroups(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for name, a := range seedGroups() {
			csr := matrix.FromDense(a)
			for k := 2; k <= 4; k++ {
				if k > a.Rows() {
					continue
				}
				opts := Options{K: k, Seed: 1, Restarts: 10, MaxIter: 500}
				checkAgainstOracle(t, fmt.Sprintf("%s k=%d", name, k), csr, opts)
			}
		}
	})
}

// randomCase draws one differential case: a random shape, density, k,
// seed, restart count, iteration budget and tolerance, with 0-1 entries
// or (one case in four) positive weights.
func randomCase(rng *rand.Rand) (*matrix.Dense, Options) {
	rows, cols := 2+rng.Intn(24), 2+rng.Intn(60)
	density := 0.05 + 0.5*rng.Float64()
	weighted := rng.Intn(4) == 0
	a := matrix.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				v := 1.0
				if weighted {
					v = 0.1 + 3*rng.Float64()
				}
				a.Set(i, j, v)
			}
		}
	}
	a.Set(rng.Intn(rows), rng.Intn(cols), 1) // never all zero
	kMax := rows
	if cols < kMax {
		kMax = cols
	}
	if kMax > 6 {
		kMax = 6
	}
	opts := Options{
		K:        1 + rng.Intn(kMax),
		Seed:     rng.Int63n(1 << 40),
		Restarts: 1 + rng.Intn(5),
		MaxIter:  1 + rng.Intn(200),
		Tol:      []float64{0, 1e-3, 1e-7, 1e-12}[rng.Intn(4)],
	}
	if rng.Intn(6) == 0 {
		opts.Init = InitNNDSVD
	}
	return a, opts
}

// TestCSRMatchesOracleOnRandomMatrices is the randomized differential
// test: 150 random problems.
func TestCSRMatchesOracleOnRandomMatrices(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(20240615))
		for c := 0; c < 150; c++ {
			a, opts := randomCase(rng)
			label := fmt.Sprintf("case %d (%dx%d %+v)", c, a.Rows(), a.Cols(), opts)
			checkAgainstOracle(t, label, matrix.FromDense(a), opts)
		}
	})
}

// TestCSRMatchesOracleAtEveryTileLayout holds the kernel's 4-wide
// tiles to the oracle at every k from 1 to 9: one padded tile (k < 4),
// one full tile, and two and three tiles, padded or full. Each k runs
// on the seed all-courses matrix and on five random matrices of at
// least 9 × 9: two 0-1 and two weighted, one of each pair
// NNDSVD-initialized, and one of entries 1e152, about the largest
// whose squares still sum to a finite norm at the largest shape drawn
// (24 × 60). Inputs past that are rejected
// (TestEntryPointsRejectNormOverflow), so the H update for an H with a
// non-finite entry is held to the oracle by
// TestSkippingHUpdateMatchesOracle.
func TestCSRMatchesOracleAtEveryTileLayout(t *testing.T) {
	forEachKernel(t, checkEveryTileLayout)
}

// TestSkippingHUpdateMatchesOracle holds the kernel to the oracle, bit
// for bit, once H has a non-finite entry: the H update then skips the
// terms of zero WᵀW entries, as the dense product does, so +Inf × 0
// does not turn a lane into NaN. No input the entry points accept is
// known to drive H there, so the kernel starts from such factors: W's
// columns have disjoint supports, making WᵀW diagonal, and one entry
// of H is +Inf. k covers one padded tile, one full tile and two tiles.
// It runs one iteration: by the second, NaN has spread through both
// factors whether or not the update skips.
func TestSkippingHUpdateMatchesOracle(t *testing.T) {
	a := matrix.FromDense(blockMatrix(3, 4, 3))
	rows, cols := a.Dims()
	normA := a.FrobeniusNorm()
	for _, ops := range hostKernels() {
		for _, k := range []int{1, 3, 4, 6} {
			w, h := matrix.New(rows, k), matrix.New(k, cols)
			for i := 0; i < rows; i++ {
				w.Set(i, i%k, 1+float64(i)/4)
			}
			for r := 0; r < k; r++ {
				for j := 0; j < cols; j++ {
					h.Set(r, j, 0.5+float64(r+j)/8)
				}
			}
			h.Set(0, 1, math.Inf(1))
			opts := Options{K: k, MaxIter: 1}.withDefaults()
			want := oracleRunSparse(a, w.Clone(), h.Clone(), opts, normA)
			got := &Result{W: w.Clone(), H: h.Clone()}
			if err := run(context.Background(), newCSRKernel(a, k, opts.Eps, normA, ops), got, opts); err != nil {
				t.Fatal(err)
			}
			if d := sameBits(got, want); d != "" {
				t.Errorf("%s k=%d: %s", ops.name, k, d)
			}
		}
	}
}

func checkEveryTileLayout(t *testing.T) {
	all := matrix.FromDense(seedGroups()["all"])
	rng := rand.New(rand.NewSource(20261018))
	for k := 1; k <= 9; k++ {
		checkAgainstOracle(t, fmt.Sprintf("all k=%d", k), all,
			Options{K: k, Seed: int64(k), Restarts: 2, MaxIter: 60, Tol: 1e-12})
		for c := 0; c < 5; c++ {
			rows, cols := 9+rng.Intn(16), 9+rng.Intn(52)
			density := 0.05 + 0.5*rng.Float64()
			a := matrix.New(rows, cols)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					if rng.Float64() < density {
						v := 1.0
						if c%2 == 1 {
							v = 0.1 + 3*rng.Float64()
						}
						if c == 4 {
							v = 1e152
						}
						a.Set(i, j, v)
					}
				}
			}
			a.Set(rng.Intn(rows), rng.Intn(cols), 1) // never all zero
			opts := Options{
				K:        k,
				Seed:     rng.Int63n(1 << 40),
				Restarts: 1 + rng.Intn(3),
				MaxIter:  1 + rng.Intn(60),
				Tol:      []float64{0, 1e-3, 1e-7, 1e-12}[rng.Intn(4)],
			}
			if c == 2 || c == 3 {
				opts.Init = InitNNDSVD
			}
			label := fmt.Sprintf("k=%d case %d (%dx%d %+v)", k, c, rows, cols, opts)
			checkAgainstOracle(t, label, matrix.FromDense(a), opts)
		}
	}
}

// TestCSRIterationAllocatesNothing pins the workspace contract: one
// steady-state step allocates nothing, for one padded tile (k = 1, 3),
// one full tile (k = 4) and two tiles (k = 6), under each of the
// host's tile routine sets.
func TestCSRIterationAllocatesNothing(t *testing.T) {
	a := matrix.FromDense(random01(30, 80, 0.15, 5))
	for _, ops := range hostKernels() {
		for _, k := range []int{1, 3, 4, 6} {
			rng := rand.New(rand.NewSource(1))
			w, h := matrix.New(30, k), matrix.New(k, 80)
			randomInit(w, h, 0.15, rng)
			kern := newCSRKernel(a, k, 1e-12, a.FrobeniusNorm(), ops)
			kern.start(w, h)
			if n := testing.AllocsPerRun(50, func() { kern.step() }); n != 0 { // lint:exact — an allocation count
				t.Fatalf("%s k=%d: one CSR step allocates %v times, want 0", ops.name, k, n)
			}
		}
	}
}

// TestCSRWorkspaceAllocatedOncePerCall: a worker's restarts reuse its
// losing restart's factors and residual trace, so on one worker (as
// AllocsPerRun pins GOMAXPROCS to 1) a 10-restart call allocates no
// more than a 2-restart one. TestParallelRestartsAllocatePerWorker
// bounds the parallel path.
func TestCSRWorkspaceAllocatedOncePerCall(t *testing.T) {
	a := matrix.FromDense(random01(30, 80, 0.15, 6))
	allocs := func(restarts int) float64 {
		opts := Options{K: 4, Seed: 3, Restarts: restarts, MaxIter: 40, Tol: 1e-300}
		res, err := FactorizeCSR(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalIterations != restarts*opts.MaxIter {
			t.Fatalf("%d restarts ran %d iterations, want every restart to run all %d", restarts, res.TotalIterations, opts.MaxIter)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := FactorizeCSR(a, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	if two, ten := allocs(2), allocs(10); ten != two { // lint:exact — allocation counts
		t.Fatalf("10 restarts allocate %v times, 2 restarts %v: restarts must reuse the workspace", ten, two)
	}
}
