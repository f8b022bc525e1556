// Command benchcheck compares two BENCH_datasets.json snapshots (the
// committed baseline vs a freshly benchmarked one) and exits non-zero
// when a compute-bound scenario regressed beyond -max-ratio. Cache-hit
// warm scenarios are measured in nanoseconds — far too noisy for a CI
// gate — so only the compute-bound modes (cold, contended, and the
// batch-scaling serial/parallel pair) are compared. Scenarios present
// on one side only are reported but never fail the gate: a new
// scenario has no baseline yet, and a retired one has no current
// sample. Both snapshots' CPU counts are printed first: the nnmf cold
// fit runs its restarts on every idle core, so its ns/op depends on
// them.
//
// The fleet local/forwarded pair carries one additional check on the
// CURRENT snapshot alone: a request forwarded one hop to its owner must
// cost at most -fleet-ratio of the same request served by the owner
// directly. Absolute loopback latencies drift with the runner, but the
// ratio only moves when the forwarding path itself regresses (lost
// keep-alives, double body reads, extra round trips), which is exactly
// what the gate is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// scenario mirrors one entry of the snapshot's scenarios array.
type scenario struct {
	Dataset    string `json:"dataset"`
	Mode       string `json:"mode"`
	NsPerOp    int64  `json:"ns_per_op"`
	Iterations int    `json:"iterations"`
}

type snapshot struct {
	Benchmark string     `json:"benchmark"`
	CPUs      int        `json:"cpus"`
	Scenarios []scenario `json:"scenarios"`
}

// gatedModes are the compute-bound modes stable enough to gate on.
// Warm cache hits stay ungated; the fleet local/forwarded pair is gated
// against each other (see fleetOverheadCheck) — loopback HTTP latencies
// are runner-dependent, but their ratio holds.
var gatedModes = map[string]bool{"cold": true, "contended": true, "serial": true, "parallel": true}

// fleetOverheadCheck verifies the fleet routing tax on the current
// snapshot: a forwarded warm hit (origin -> owner -> origin) must not
// exceed maxFleetRatio times the owner-local warm hit. Returns "" when
// the pair is absent (single-process snapshots) or the contract holds.
func fleetOverheadCheck(current snapshot, maxFleetRatio float64) string {
	var local, forwarded scenario
	for _, sc := range current.Scenarios {
		if sc.Dataset == "fleet" && sc.Mode == "local" {
			local = sc
		}
		if sc.Dataset == "fleet" && sc.Mode == "forwarded" {
			forwarded = sc
		}
	}
	if local.NsPerOp <= 0 || forwarded.NsPerOp <= 0 {
		return ""
	}
	ratio := float64(forwarded.NsPerOp) / float64(local.NsPerOp)
	if ratio > maxFleetRatio {
		return fmt.Sprintf("fleet forwarded serve costs %.1fx a local one (%d vs %d ns/op), want <= %.1fx",
			ratio, forwarded.NsPerOp, local.NsPerOp, maxFleetRatio)
	}
	return ""
}

// cpusLine names both snapshots' CPU counts. nnmf/cold runs its
// restarts on every idle core, so its ratio across snapshots taken on
// different CPU counts measures the machines as well as the code.
func cpusLine(baseline, current snapshot) string {
	line := fmt.Sprintf("cpus: baseline %d, current %d", baseline.CPUs, current.CPUs)
	if baseline.CPUs != current.CPUs {
		line += " (differ: nnmf/cold scales with the CPU count)"
	}
	return line
}

func loadSnapshot(path string) (snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, err
	}
	var s snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compare returns one line per gated scenario present in both
// snapshots, plus the list of regressions (ratio > maxRatio).
func compare(baseline, current snapshot, maxRatio float64) (report, regressions []string) {
	base := make(map[string]scenario, len(baseline.Scenarios))
	for _, sc := range baseline.Scenarios {
		base[sc.Dataset+"/"+sc.Mode] = sc
	}
	seen := map[string]bool{}
	for _, cur := range current.Scenarios {
		key := cur.Dataset + "/" + cur.Mode
		seen[key] = true
		if !gatedModes[cur.Mode] {
			continue
		}
		b, ok := base[key]
		if !ok {
			report = append(report, fmt.Sprintf("%-20s new scenario, no baseline", key))
			continue
		}
		if b.NsPerOp <= 0 {
			report = append(report, fmt.Sprintf("%-20s unusable baseline (%d ns/op)", key, b.NsPerOp))
			continue
		}
		ratio := float64(cur.NsPerOp) / float64(b.NsPerOp)
		line := fmt.Sprintf("%-20s %12d -> %12d ns/op  (%.2fx)", key, b.NsPerOp, cur.NsPerOp, ratio)
		report = append(report, line)
		if ratio > maxRatio {
			regressions = append(regressions, line)
		}
	}
	for key, sc := range base {
		if gatedModes[sc.Mode] && !seen[key] {
			report = append(report, fmt.Sprintf("%-20s missing from current run", key))
		}
	}
	return report, regressions
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_datasets.json", "committed benchmark snapshot")
	currentPath := fs.String("current", "", "freshly generated benchmark snapshot")
	maxRatio := fs.Float64("max-ratio", 3, "fail when current/baseline ns/op exceeds this")
	fleetRatio := fs.Float64("fleet-ratio", 8, "fail when a forwarded fleet serve exceeds this multiple of a local one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -current is required")
		return 2
	}
	current, err := loadSnapshot(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		return 2
	}
	if msg := fleetOverheadCheck(current, *fleetRatio); msg != "" {
		fmt.Fprintln(os.Stderr, "benchcheck: "+msg)
		return 1
	}
	baseline, err := loadSnapshot(*baselinePath)
	if err != nil {
		// No baseline is not a failure: the first run on a branch that
		// never committed a snapshot has nothing to regress against.
		fmt.Fprintf(os.Stderr, "benchcheck: no usable baseline (%v); skipping gate\n", err)
		return 0
	}
	fmt.Println(cpusLine(baseline, current))
	report, regressions := compare(baseline, current, *maxRatio)
	for _, line := range report {
		fmt.Println(line)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d scenario(s) regressed beyond %.1fx:\n", len(regressions), *maxRatio)
		for _, line := range regressions {
			fmt.Fprintln(os.Stderr, "  "+line)
		}
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:])) }
