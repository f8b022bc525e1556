// Command perfbench drives a real cmd/serve binary over loopback HTTP
// with one of four seeded workloads, checks every answer, and prints
// the benchmark result as one JSON object on the last line of standard
// output.
//
// Usage (run.sh builds both binaries from the checkout first):
//
//	perfbench -serve <cmd/serve binary> --workload read-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with the
// benchmark's own tracing off. With --trace 1 it repeats the same run
// with spans on, fetches the server's trace records for a sample of
// requests, times each layer's public entry point in-process (the
// ladder), and reports the per-layer metrics.
package main

import (
	"context"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic mix against a running server.
type workload interface {
	// conns is the number of connections of the closed loop.
	conns() int
	// block is the number of ops that make up one whole mix; the timed
	// phase runs whole blocks.
	block() int
	// grow makes the inputs of ops up to n, in seed order.
	grow(n int) error
	// setup loads the workload's tenants and fills its working set on
	// a freshly started server.
	setup(ctx context.Context, s *target) error
	// run performs ops [from, to) and records them in ph.
	run(ctx context.Context, s *target, tr *tracer, from, to int, ph *phase)
	// verify runs the output checks that need the whole phase.
	verify(ctx context.Context, ph *phase) error
	// corpus is one of the workload's tenant documents; the traced
	// run's ladder times every layer on it.
	corpus() []byte
}

// spec describes a workload.
type spec struct {
	class string // what one op is, naming the printed tails
	// every is how many ops the traced run lets pass between two whose
	// server trace records it fetches.
	every int
	build func(rng *rand.Rand) (workload, error)
}

var specs = map[string]spec{
	"read-hot":     {"read", 100, func(r *rand.Rand) (workload, error) { return newReadHot(r), nil }},
	"ingest-cold":  {"ingest", 1, func(r *rand.Rand) (workload, error) { return newIngestCold(r), nil }},
	"edit-same":    {"same", 10, func(r *rand.Rand) (workload, error) { return newEditRefresh(r, keepTags) }},
	"edit-changed": {"changed", 2, func(r *rand.Rand) (workload, error) { return newEditRefresh(r, changeTags) }},
}

// setupRuns is how many times a run starts a server and sets it up;
// setup_s is the median, and the last server is the one measured.
const setupRuns = 3

// rounds splits the timed phase into equal spans of time, each a whole
// number of blocks; the server's counters are read at every round
// boundary, so each per-layer count has a spread.
const rounds = 5

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: read-hot, ingest-cold, edit-same or edit-changed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the timed phase, run in whole blocks")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	bin := fs.String("serve", "", "path of the cmd/serve binary under test")
	outDir := fs.String("out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*name]
	if !ok || *seconds < 1 || *bin == "" || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -serve, a known --workload, --seconds >= 1 and --trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := &runner{name: *name, sp: sp, seed: *seed, seconds: *seconds, bin: *bin}
	if *traceFlag == 1 {
		r.tr = newTracer()
		r.tr.every = sp.every
		r.spanFile = filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
	}
	res, err := r.execute(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, err := fmt.Println(string(b)); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runner struct {
	name     string
	sp       spec
	seed     int64
	seconds  int
	bin      string
	tr       *tracer
	spanFile string
}

func (r *runner) printf(format string, args ...interface{}) {
	fmt.Printf(format+"\n", args...)
}

func (r *runner) execute(ctx context.Context) (*result, error) {
	rng := rand.New(rand.NewSource(r.seed))
	w, err := r.sp.build(rng)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}

	var s *target
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	setups := make([]float64, setupRuns)
	for k := range setups {
		if s != nil {
			s.stop()
			s = nil
		}
		t0 := time.Now()
		if s, err = launch(r.bin, w.conns()); err != nil {
			return nil, err
		}
		if err := s.waitReady(ctx); err != nil {
			return nil, err
		}
		if err := w.setup(ctx, s); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[k] = time.Since(t0).Seconds()
	}

	goVersion := runtime.Version()
	if bi, err := buildinfo.ReadFile(r.bin); err == nil {
		goVersion = bi.GoVersion
	}
	r.printf("workload %s seed %d seconds %d trace %v: closed loop, %d connection(s), blocks of %d ops",
		r.name, r.seed, r.seconds, r.tr != nil, w.conns(), w.block())

	ph := &phase{}
	bounds := make([]counters, 0, rounds+1)
	cpus := make([]float64, 0, rounds+1)
	b0, err := s.readCounters(ctx, true)
	if err != nil {
		return nil, err
	}
	bounds = append(bounds, b0)
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	c0, err := s.cpuTicks()
	if err != nil {
		return nil, err
	}
	cpus = append(cpus, c0)
	start := time.Now()
	var roundEnds []int
	roundOps := make([]int, 0, rounds)
	n := 0
	for k := 0; k < rounds; k++ {
		until := start.Add(time.Duration(k+1) * time.Duration(r.seconds) * time.Second / rounds)
		for from := n; n == from || time.Now().Before(until); {
			if err := w.grow(n + w.block()); err != nil {
				return nil, fmt.Errorf("inputs: %w", err)
			}
			w.run(ctx, s, r.tr, n, n+w.block(), ph)
			n += w.block()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		roundEnds = append(roundEnds, len(ph.ops))
		roundOps = append(roundOps, n-sum(roundOps))
		c, err := s.cpuTicks()
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, c)
		if k == rounds-1 {
			break
		}
		b, err := s.readCounters(ctx, false)
		if err != nil {
			return nil, err
		}
		bounds = append(bounds, b)
	}
	elapsed := time.Since(start)
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	end, err := s.readCounters(ctx, true)
	if err != nil {
		return nil, err
	}
	bounds = append(bounds, end)

	ph.before, ph.after = b0, end
	verr := w.verify(ctx, ph)
	if ph.attempted == 0 {
		return nil, errors.New("no op was attempted")
	}
	fails := append([]string(nil), ph.fails...)
	if verr != nil {
		fails = append(fails, verr.Error())
	}

	steal := stealPct(host0, host1)
	r.printf("env nproc=%d server_gomaxprocs=%d go=%s loadgen.steal_pct=%.2f timed_s=%.3f",
		runtime.NumCPU(), s.gomaxprocs(), goVersion, steal, elapsed.Seconds())

	lat := latencies(ph.ops)
	if len(lat) == 0 {
		return nil, errors.New("no op completed")
	}
	ops := float64(ph.attempted)
	e2e := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"cpu_ms_per_op": {(cpus[len(cpus)-1] - cpus[0]) * 10 / ops, "ms"},
		"heap_live_mb":  {end["mem.HeapAlloc"] / (1 << 20), "MB"},
		"p50_ms":        {median(lat), "ms"},
	}
	r.printEndToEnd(e2e, lat, setups)
	r.printRounds(ph, roundEnds, cpus)
	layers := r.counterMetrics(bounds, roundOps, ph, steal)

	res := &result{Correct: len(fails) == 0, Attempted: ph.attempted, Failed: len(ph.fails), Metrics: e2e}
	if verr != nil && res.Failed == 0 {
		res.Failed = 1
	}
	if r.tr != nil {
		if err := r.traced(ctx, s, w, layers, e2e); err != nil {
			return nil, err
		}
		res.Metrics = layers
	}
	for i, f := range fails {
		if i == 5 {
			r.printf("check: ... %d more", len(fails)-i)
			break
		}
		r.printf("check: FAIL %s", f)
	}
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	r.printf("check: %s (ops attempted %d, failed %d)", verdict, res.Attempted, res.Failed)
	return res, nil
}

// latencyName maps p50_ms to the workload-specific name it stands for.
var latencyName = map[string]string{
	"read-hot": "read_p50_ms", "ingest-cold": "ingest_p50_ms",
	"edit-same": "fresh_same_p50_ms", "edit-changed": "fresh_changed_p50_ms",
}

func (r *runner) printEndToEnd(e2e map[string]metric, lat []float64, setups []float64) {
	names := make([]string, 0, len(e2e))
	for k := range e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.printf("e2e %s = %.4f %s", k, e2e[k].Value, e2e[k].Unit)
	}
	r.printf("e2e %s (= p50_ms) = %.4f ms, n=%d", latencyName[r.name], e2e["p50_ms"].Value, len(lat))
	for _, q := range []float64{0.9, 0.99} {
		above := int(float64(len(lat)) * (1 - q))
		r.printf("tail loadgen.%s_p%.0f_ms = %.4f ms, n=%d, %d above (not gated)", r.sp.class, 100*q, quantile(lat, q), len(lat), above)
	}
	r.printf("setup runs s = %v", fmtList(setups))
}

// printRounds prints the p50 and the server CPU per op of each round,
// the within-run spread of the two gated timings.
func (r *runner) printRounds(ph *phase, ends []int, cpus []float64) {
	var p50s, cpu []float64
	lo := 0
	for k, hi := range ends {
		if hi > lo {
			p50s = append(p50s, median(latencies(ph.ops[lo:hi])))
			cpu = append(cpu, (cpus[k+1]-cpus[k])*10/float64(hi-lo))
		}
		lo = hi
	}
	r.printf("rounds p50_ms %v (spread %.1f%%), cpu_ms_per_op %v (spread %.1f%%)",
		fmtList(p50s), 100*spread(p50s), fmtList(cpu), 100*spread(cpu))
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}

// traced finishes the traced run: it attributes the sampled requests'
// time to the server's stages, runs the ladder, and writes the spans.
func (r *runner) traced(ctx context.Context, s *target, w workload, layers, e2e map[string]metric) error {
	all, slowest, n := r.tr.stageMS()
	r.printf("server stages over %d fetched trace records (ms, summed; spans nest):", n)
	for _, k := range sortedNames(all) {
		r.printf("  %-22s %10.3f   slowest op: %.3f", k, all[k], slowest[k])
	}
	ladder, err := r.ladder(ctx, s, w.corpus())
	if err != nil {
		return err
	}
	for k, v := range ladder {
		layers[k] = v
	}
	// The traced run's own p50 beside the untraced runs' p50_ms shows
	// what the benchmark's tracing costs.
	layers["trace.p50_ms"] = e2e["p50_ms"]
	if err := r.tr.write(r.spanFile); err != nil {
		return err
	}
	r.printf("spans written to %s", r.spanFile)
	return nil
}

func sortedNames(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
