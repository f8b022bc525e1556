package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snap(scs ...scenario) snapshot {
	return snapshot{Benchmark: "BenchmarkDatasetServing", Scenarios: scs}
}

func TestCompareGatesColdRegressions(t *testing.T) {
	baseline := snap(
		scenario{Dataset: "default", Mode: "cold", NsPerOp: 1000},
		scenario{Dataset: "default", Mode: "warm", NsPerOp: 10},
		scenario{Dataset: "mixed", Mode: "contended", NsPerOp: 2000},
	)
	// Within the 3x budget: no regressions.
	current := snap(
		scenario{Dataset: "default", Mode: "cold", NsPerOp: 2900},
		scenario{Dataset: "default", Mode: "warm", NsPerOp: 500}, // warm is never gated
		scenario{Dataset: "mixed", Mode: "contended", NsPerOp: 1000},
	)
	report, regressions := compare(baseline, current, 3)
	if len(regressions) != 0 {
		t.Fatalf("unexpected regressions: %v", regressions)
	}
	if len(report) != 2 {
		t.Fatalf("report = %v, want the two gated scenarios", report)
	}

	// Past the budget: the cold scenario fails the gate.
	current.Scenarios[0].NsPerOp = 3100
	_, regressions = compare(baseline, current, 3)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "default/cold") {
		t.Fatalf("regressions = %v, want default/cold", regressions)
	}
}

func TestCompareHandlesMissingScenarios(t *testing.T) {
	baseline := snap(scenario{Dataset: "default", Mode: "cold", NsPerOp: 1000})
	current := snap(scenario{Dataset: "alt", Mode: "cold", NsPerOp: 9_000_000})
	report, regressions := compare(baseline, current, 3)
	if len(regressions) != 0 {
		t.Fatalf("scenarios without a counterpart must not fail the gate: %v", regressions)
	}
	joined := strings.Join(report, "\n")
	if !strings.Contains(joined, "alt/cold") || !strings.Contains(joined, "no baseline") {
		t.Fatalf("report missing new-scenario note:\n%s", joined)
	}
	if !strings.Contains(joined, "default/cold") || !strings.Contains(joined, "missing from current") {
		t.Fatalf("report missing retired-scenario note:\n%s", joined)
	}
}

func TestCompareGatesBatchScaling(t *testing.T) {
	baseline := snap(
		scenario{Dataset: "batch", Mode: "serial", NsPerOp: 4000},
		scenario{Dataset: "batch", Mode: "parallel", NsPerOp: 1000},
	)
	current := snap(
		scenario{Dataset: "batch", Mode: "serial", NsPerOp: 4500},
		scenario{Dataset: "batch", Mode: "parallel", NsPerOp: 3500},
	)
	_, regressions := compare(baseline, current, 3)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "batch/parallel") {
		t.Fatalf("regressions = %v, want batch/parallel", regressions)
	}
}

func TestFleetOverheadCheck(t *testing.T) {
	// Pair absent (single-process snapshots): no verdict.
	if msg := fleetOverheadCheck(snap(scenario{Dataset: "fleet", Mode: "local", NsPerOp: 50_000}), 8); msg != "" {
		t.Fatalf("snapshot without the forwarded half: %q", msg)
	}
	healthy := snap(
		scenario{Dataset: "fleet", Mode: "local", NsPerOp: 50_000},
		scenario{Dataset: "fleet", Mode: "forwarded", NsPerOp: 150_000},
	)
	if msg := fleetOverheadCheck(healthy, 8); msg != "" {
		t.Fatalf("3x forwarding overhead flagged: %q", msg)
	}
	broken := snap(
		scenario{Dataset: "fleet", Mode: "local", NsPerOp: 50_000},
		scenario{Dataset: "fleet", Mode: "forwarded", NsPerOp: 500_000},
	)
	if msg := fleetOverheadCheck(broken, 8); msg == "" {
		t.Fatal("10x forwarding overhead must fail the gate")
	}
	// The pair never enters the baseline comparison: forwarded/local are
	// not gated modes, so runner-to-runner latency drift can't fail CI.
	_, regressions := compare(snap(), broken, 3)
	if len(regressions) != 0 {
		t.Fatalf("fleet modes leaked into the baseline gate: %v", regressions)
	}
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", `{"scenarios":[{"dataset":"default","mode":"cold","ns_per_op":1000}]}`)
	slow := write("slow.json", `{"scenarios":[{"dataset":"default","mode":"cold","ns_per_op":5000}]}`)
	fast := write("fast.json", `{"scenarios":[{"dataset":"default","mode":"cold","ns_per_op":1200}]}`)

	if code := run([]string{"-baseline", base, "-current", fast}); code != 0 {
		t.Fatalf("healthy run exited %d", code)
	}
	if code := run([]string{"-baseline", base, "-current", slow}); code != 1 {
		t.Fatalf("5x regression exited %d, want 1", code)
	}
	// A missing baseline skips the gate instead of failing the build.
	if code := run([]string{"-baseline", filepath.Join(dir, "absent.json"), "-current", fast}); code != 0 {
		t.Fatalf("missing baseline exited %d, want 0", code)
	}
	// A missing or malformed current snapshot is a hard usage error.
	if code := run([]string{"-baseline", base, "-current", filepath.Join(dir, "absent.json")}); code != 2 {
		t.Fatal("missing current snapshot must exit 2")
	}
	if code := run([]string{"-baseline", base}); code != 2 {
		t.Fatal("missing -current must exit 2")
	}
}

func TestCPUsLineNamesBothCounts(t *testing.T) {
	base, cur := snap(), snap()
	base.CPUs, cur.CPUs = 2, 2
	if line := cpusLine(base, cur); line != "cpus: baseline 2, current 2" {
		t.Fatalf("same counts: %q", line)
	}
	cur.CPUs = 8
	if line := cpusLine(base, cur); !strings.Contains(line, "baseline 2, current 8") || !strings.Contains(line, "differ") {
		t.Fatalf("different counts: %q", line)
	}
}
