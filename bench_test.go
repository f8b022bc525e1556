// Benchmark harness: one benchmark per figure of the paper plus the
// ablations called out in DESIGN.md §5. Each figure benchmark regenerates
// the figure's artifact and, on its first run in the process, prints the
// same rows/series the paper reports so that
//
//	go test -bench=. -benchmem
//
// both times the pipelines and records their outputs (tee the run into
// bench_output.txt to archive the reproduction).
package csmaterials_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"csmaterials/internal/agreement"
	"csmaterials/internal/audit"
	"csmaterials/internal/bicluster"
	"csmaterials/internal/catalog"
	"csmaterials/internal/cluster"
	"csmaterials/internal/core"
	"csmaterials/internal/dataset"
	"csmaterials/internal/factorize"
	"csmaterials/internal/materials"
	"csmaterials/internal/matrix"
	"csmaterials/internal/mds"
	"csmaterials/internal/nnmf"
	"csmaterials/internal/ontology"
	"csmaterials/internal/pca"
	"csmaterials/internal/robustness"
	"csmaterials/internal/search"
	"csmaterials/internal/server"
	"csmaterials/internal/simgraph"
	"csmaterials/internal/taskgraph"
)

var printOnce sync.Map

// benchFigure runs a figure generator inside a benchmark loop, printing
// its text once per process.
func benchFigure(b *testing.B, id string, gen func() (*core.Artifact, error)) {
	b.Helper()
	art, err := gen()
	if err != nil {
		b.Fatal(err)
	}
	if _, done := printOnce.LoadOrStore(id, true); !done {
		fmt.Printf("\n================ %s ================\n%s\n", id, art.Text)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact -----------------------------------

func BenchmarkFigure1CourseTable(b *testing.B) { benchFigure(b, "Figure 1", core.Figure1) }

func BenchmarkFigure2AllCoursesNNMF(b *testing.B) { benchFigure(b, "Figure 2", core.Figure2) }

func BenchmarkFigure3aCS1Agreement(b *testing.B) { benchFigure(b, "Figure 3a", core.Figure3a) }

func BenchmarkFigure3bDSAgreement(b *testing.B) { benchFigure(b, "Figure 3b", core.Figure3b) }

func BenchmarkFigure4CS1AgreementTrees(b *testing.B) { benchFigure(b, "Figure 4", core.Figure4) }

func BenchmarkFigure5CS1NNMF(b *testing.B) { benchFigure(b, "Figure 5", core.Figure5) }

func BenchmarkFigure6DSAgreementTrees(b *testing.B) { benchFigure(b, "Figure 6", core.Figure6) }

func BenchmarkFigure7DSNNMF(b *testing.B) { benchFigure(b, "Figure 7", core.Figure7) }

func BenchmarkFigure8PDCAgreement(b *testing.B) { benchFigure(b, "Figure 8", core.Figure8) }

func BenchmarkAnchorRecommendations(b *testing.B) { benchFigure(b, "§5.2 anchors", core.AnchorReport) }

// --- Ablation: NNMF update rules (DESIGN.md §5) --------------------------

func courseMatrix(b *testing.B) *matrix.Dense {
	b.Helper()
	a, _ := materials.CourseMatrix(dataset.Courses())
	return a.ToDense()
}

func BenchmarkNNMFAlgorithm(b *testing.B) {
	a := courseMatrix(b)
	for _, alg := range []nnmf.Algorithm{nnmf.MultiplicativeFrobenius, nnmf.MultiplicativeKL, nnmf.HALS} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			var lastErr float64
			for i := 0; i < b.N; i++ {
				res, err := nnmf.Factorize(a, nnmf.Options{K: 4, Algorithm: alg, Seed: 1, MaxIter: 200})
				if err != nil {
					b.Fatal(err)
				}
				lastErr = res.Err
			}
			b.ReportMetric(lastErr, "rel-err")
		})
	}
}

func BenchmarkNNMFInit(b *testing.B) {
	a := courseMatrix(b)
	for _, init := range []nnmf.Init{nnmf.InitRandom, nnmf.InitNNDSVD} {
		b.Run(init.String(), func(b *testing.B) {
			var lastErr float64
			for i := 0; i < b.N; i++ {
				res, err := nnmf.Factorize(a, nnmf.Options{K: 4, Init: init, Seed: 1, MaxIter: 200})
				if err != nil {
					b.Fatal(err)
				}
				lastErr = res.Err
			}
			b.ReportMetric(lastErr, "rel-err")
		})
	}
}

// --- Ablation: NNMF vs PCA vs MDS on course separation -------------------

func BenchmarkDimReduction(b *testing.B) {
	a := courseMatrix(b)
	b.Run("nnmf-k4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nnmf.Factorize(a, nnmf.Options{K: 4, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pca-k4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pca.Fit(a, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mds-k2", func(b *testing.B) {
		// Distances between course tag vectors, embedded in 2D.
		d := mds.EuclideanDistances(a)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mds.Classical(d, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: dense vs sparse NNMF on the real course matrix ------------

func BenchmarkSparseNNMF(b *testing.B) {
	a := courseMatrix(b)
	csr := matrix.FromDense(a)
	b.Logf("course matrix %dx%d, density %.3f", a.Rows(), a.Cols(), csr.Density())
	opts := nnmf.Options{K: 4, Seed: 1, MaxIter: 200}
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nnmf.Factorize(a, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nnmf.FactorizeCSR(csr, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: serial vs parallel matrix multiply ------------------------

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := matrix.Random(256, 256, rng)
	y := matrix.Random(256, 256, rng)
	b.Run("serial-256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.MulSerial(y)
		}
	})
	b.Run(fmt.Sprintf("parallel-256-p%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.MulParallel(y, 0)
		}
	})
}

// --- Ablation: list-scheduling policies and machine sweep ----------------

func BenchmarkListScheduling(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := taskgraph.Layered(12, 16, 0.2, rng)
	for _, policy := range []taskgraph.Policy{taskgraph.FIFO, taskgraph.LPT, taskgraph.CriticalPathPriority} {
		for _, m := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/m%d", policy, m), func(b *testing.B) {
				var makespan float64
				for i := 0; i < b.N; i++ {
					s, err := taskgraph.ListSchedule(g, m, policy)
					if err != nil {
						b.Fatal(err)
					}
					makespan = s.Makespan
				}
				b.ReportMetric(makespan, "makespan")
			})
		}
	}
}

// BenchmarkHEFT sweeps communication cost on a heterogeneous platform.
func BenchmarkHEFT(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	g := taskgraph.Layered(10, 12, 0.25, rng)
	machines := []taskgraph.Machine{{Speed: 2}, {Speed: 1}, {Speed: 1}, {Speed: 0.5}}
	for _, comm := range []float64{0, 0.5, 2} {
		comm := comm
		b.Run(fmt.Sprintf("comm-%.1f", comm), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				s, err := taskgraph.HEFT(g, machines, comm)
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Makespan
			}
			b.ReportMetric(makespan, "makespan")
		})
	}
}

func BenchmarkTaskGraphExecute(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := taskgraph.Layered(8, 8, 0.3, rng)
	noop := func(string) error { return nil }
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := g.Execute(workers, noop); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Serving layer: cold vs. warm analysis cache --------------------------

// serveOnce drives one request through the full middleware + handler
// stack and fails the benchmark on a non-200.
func serveOnce(b *testing.B, s *server.Server, path string) {
	b.Helper()
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	if rr.Code != http.StatusOK {
		b.Fatalf("GET %s: status %d\n%s", path, rr.Code, rr.Body.String())
	}
}

// BenchmarkServeTypes contrasts recomputing the NNMF typing on every
// request (cold: cache retention disabled) with serving it from the
// LRU cache (warm). The warm path is the production configuration.
func BenchmarkServeTypes(b *testing.B) {
	const path = "/api/v1/types?group=all&k=4"
	b.Run("cold", func(b *testing.B) {
		s, err := server.NewWithOptions(server.Options{CacheSize: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, s, path)
		}
	})
	b.Run("warm", func(b *testing.B) {
		s, err := server.New()
		if err != nil {
			b.Fatal(err)
		}
		serveOnce(b, s, path) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, s, path)
		}
	})
}

// BenchmarkServeAgreement does the same for the agreement analysis.
func BenchmarkServeAgreement(b *testing.B) {
	const path = "/api/v1/agreement?group=cs1&threshold=4"
	b.Run("cold", func(b *testing.B) {
		s, err := server.NewWithOptions(server.Options{CacheSize: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, s, path)
		}
	})
	b.Run("warm", func(b *testing.B) {
		s, err := server.New()
		if err != nil {
			b.Fatal(err)
		}
		serveOnce(b, s, path)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, s, path)
		}
	})
}

// --- Supporting-system benchmarks ----------------------------------------

func BenchmarkSearchEngine(b *testing.B) {
	engine := search.NewEngine(dataset.Repository())
	q := search.Query{TagPrefixes: []string{"AL/"}, Limit: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := engine.Search(q); len(res) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkSimilarityGraph(b *testing.B) {
	ms := dataset.Repository().Course("uncc-2214-krs").Materials
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simgraph.Build(ms, simgraph.Jaccard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDSEmbed(b *testing.B) {
	ms := dataset.Repository().Course("uncc-2214-krs").Materials[:16]
	g, err := simgraph.Build(ms, simgraph.Jaccard)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Embed(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBicluster(b *testing.B) {
	a := courseMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bicluster.Cluster(a, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgreementAnalysis(b *testing.B) {
	courses := dataset.CoursesByID(dataset.DSCourseIDs())
	guidelines := []*ontology.Guideline{ontology.CS2013(), ontology.PDC12()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := agreement.Analyze(courses, guidelines...)
		if err != nil {
			b.Fatal(err)
		}
		_ = a.Tree(ontology.CS2013(), 3)
	}
}

// BenchmarkStability times the restart-consensus stability analysis
// (DESIGN.md §5 extension; addresses the paper's §5.3 sample-size threat).
func BenchmarkStability(b *testing.B) {
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	var score float64
	for i := 0; i < b.N; i++ {
		st, err := factorize.AssessStability(courses, 3, nnmf.Options{Seed: 1, MaxIter: 200}, 6)
		if err != nil {
			b.Fatal(err)
		}
		score = st.Score()
	}
	b.ReportMetric(score, "stability")
}

// BenchmarkCatalogRecommend times the public-material recommendation
// pipeline (the paper's stated future work).
func BenchmarkCatalogRecommend(b *testing.B) {
	course := dataset.Repository().Course("uncc-2214-krs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs := catalog.Recommend(course, 10); len(recs) == 0 {
			b.Fatal("no recommendations")
		}
	}
}

// BenchmarkAudit times the CS2013 tier audit over the full collection.
func BenchmarkAudit(b *testing.B) {
	courses := dataset.Courses()
	g := ontology.CS2013()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cov := audit.AuditCollection(courses, g); len(cov) == 0 {
			b.Fatal("empty audit")
		}
	}
}

// BenchmarkRobustnessSweep times the classification-noise sensitivity
// analysis (the §5.3 threat-to-validity, made measurable).
func BenchmarkRobustnessSweep(b *testing.B) {
	courses := dataset.Courses()
	var typing float64
	for i := 0; i < b.N; i++ {
		res, err := robustness.Sweep(courses, 4, factorize.PaperOptions(), []float64{0.1}, 2)
		if err != nil {
			b.Fatal(err)
		}
		typing = res[0].Typing
	}
	b.ReportMetric(typing, "typing@10%noise")
}

// BenchmarkHierarchicalClustering times the dendrogram construction over
// all 20 courses (the future-work alternative typing).
func BenchmarkHierarchicalClustering(b *testing.B) {
	courses := dataset.Courses()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Build(courses, cluster.Average); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrapAgreement times the §5.3 bootstrap over the CS1 set.
func BenchmarkBootstrapAgreement(b *testing.B) {
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	gs := []*ontology.Guideline{ontology.CS2013(), ontology.PDC12()}
	for i := 0; i < b.N; i++ {
		if _, err := robustness.BootstrapAgreement(courses, 100, 0.9, 1, gs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelSelection times the paper's k = 2..4 sweep on CS1.
func BenchmarkModelSelection(b *testing.B) {
	courses := dataset.CoursesByID(dataset.CS1CourseIDs())
	guidelines := []*ontology.Guideline{ontology.CS2013(), ontology.PDC12()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := factorize.CompareK(courses, []int{2, 3, 4}, factorize.PaperOptions(), guidelines...); err != nil {
			b.Fatal(err)
		}
	}
}
