package server

import (
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/fleet"
	"csmaterials/internal/obs"
)

// TestAPIDocsCoverRegistry pins docs/api.md to the live route table:
// every registered analysis must be documented, and every documented
// /api/v1/<segment> must correspond to a real route. CI runs this
// test by name, so adding an analysis without documenting it (or
// documenting an endpoint that does not exist) fails the build.
func TestAPIDocsCoverRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "api.md"))
	if err != nil {
		t.Fatalf("docs/api.md unreadable: %v", err)
	}
	doc := string(raw)

	reg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	names := reg.Names()
	for _, name := range names {
		if !strings.Contains(doc, "/api/v1/"+name) {
			t.Errorf("docs/api.md does not document registered analysis %q (GET /api/v1/%s)", name, name)
		}
	}

	// Fixed (non-registry) routes the doc must cover.
	for _, route := range []string{
		"/api/v1/courses", "/api/v1/search", "/api/v1/batch",
		"/api/v1/datasets", "/api/v1/datasets/{id}", "/api/v1/keys/reload",
		"/api/v1/fleet",
		"/healthz", "/readyz", "/metrics", "/debug/trace",
	} {
		if !strings.Contains(doc, route) {
			t.Errorf("docs/api.md does not document %s", route)
		}
	}

	// Fleet-mode error codes clients can observe.
	for _, code := range []string{"node_draining", "not_owner"} {
		if !strings.Contains(doc, code) {
			t.Errorf("docs/api.md does not document the %s error code", code)
		}
	}

	// Every route family that exists un-scoped also exists under
	// /api/v1/datasets/{id}/; the doc must cover each scoped family —
	// the fixed query families and every registered analysis.
	scoped := append([]string{"courses", "search", "figures"}, names...)
	for _, fam := range scoped {
		if !strings.Contains(doc, "/api/v1/datasets/{id}/"+fam) {
			t.Errorf("docs/api.md does not document the dataset-scoped route family /api/v1/datasets/{id}/%s", fam)
		}
	}

	// Reverse direction: every /api/v1/<segment> the doc mentions must
	// be a real route — a registered analysis or a fixed endpoint.
	known := map[string]bool{"courses": true, "search": true, "figures": true, "batch": true, "datasets": true, "keys": true, "fleet": true}
	for _, name := range names {
		known[name] = true
	}
	seg := regexp.MustCompile(`/api/v1/([a-z]+)`)
	for _, m := range seg.FindAllStringSubmatch(doc, -1) {
		if !known[m[1]] {
			t.Errorf("docs/api.md documents /api/v1/%s, which is not a registered analysis or fixed route", m[1])
		}
	}
}

// fleetFamilies returns the csm_fleet_* families of a fleet-mode
// replica.
func fleetFamilies(t *testing.T) []obs.Family {
	t.Helper()
	fl, err := fleet.New(fleet.Config{
		Self:  "a",
		Peers: []fleet.Peer{{ID: "a", URL: "http://127.0.0.1:1"}, {ID: "b", URL: "http://127.0.0.1:2"}},
	}, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(Options{Fleet: fl, disableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	return s.promFleetFamilies()
}

// TestClusterDocsCoverFleetMetrics pins docs/cluster.md (and the
// operations guide's metrics reference) to the live csm_fleet_*
// exposition: every family a fleet-mode replica emits must be
// documented, and every csm_fleet_* name the docs mention must be a
// family that actually exists. Adding a fleet counter without
// documenting it fails CI, exactly like an undocumented analysis route.
func TestClusterDocsCoverFleetMetrics(t *testing.T) {
	cluster, err := os.ReadFile(filepath.Join("..", "..", "docs", "cluster.md"))
	if err != nil {
		t.Fatalf("docs/cluster.md unreadable: %v", err)
	}
	ops, err := os.ReadFile(filepath.Join("..", "..", "docs", "operations.md"))
	if err != nil {
		t.Fatalf("docs/operations.md unreadable: %v", err)
	}

	live := map[string]bool{}
	for _, fam := range fleetFamilies(t) {
		live[fam.Name] = true
		for docName, content := range map[string]string{"cluster": string(cluster), "operations": string(ops)} {
			if !strings.Contains(content, fam.Name) {
				t.Errorf("docs/%s.md does not document the %s metric family", docName, fam.Name)
			}
		}
	}

	// Reverse direction: a documented csm_fleet_* name must exist.
	fam := regexp.MustCompile(`csm_fleet_[a-z_]+`)
	for _, m := range fam.FindAllString(string(cluster)+string(ops), -1) {
		if !live[m] {
			t.Errorf("docs mention %s, which is not an emitted family", m)
		}
	}

	// The operational contract of a drain must be spelled out.
	for _, term := range []string{"node_draining", "not_owner", "SIGTERM", "X-CSM-Forwarded", "X-CSM-Ring-Version", "X-CSM-Owner"} {
		if !strings.Contains(string(cluster), term) {
			t.Errorf("docs/cluster.md does not mention %s", term)
		}
	}
}

// TestOperationsDocsCoverMetrics pins docs/operations.md's metrics
// reference to the live exposition in both directions: every family a
// server emits once a second dataset has been PUT, read, PATCHed and
// reclaimed idle is named there, fleet families included, and every
// csm_ name there is a family that is emitted (a histogram's _bucket,
// _sum and _count series included; a name ending in "_", as in
// csm_fleet_*, must prefix one). A deleted family cannot linger in the
// runbook.
func TestOperationsDocsCoverMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "operations.md"))
	if err != nil {
		t.Fatalf("docs/operations.md unreadable: %v", err)
	}
	ops := string(raw)

	s := newObsServer(t, Options{IdleTTL: time.Minute})
	putDataset(t, s, "alt", 3)
	agreementCourses(t, s, "/api/v1/datasets/alt/agreement")
	if w := do(t, s, http.MethodPatch, "/api/v1/datasets/alt", retagBody(t, s, "alt")); w.Code != http.StatusOK {
		t.Fatalf("PATCH: status %d\n%s", w.Code, w.Body.Bytes())
	}
	if got := s.reclaimIdle(time.Now().Add(time.Hour)); len(got) != 1 {
		t.Fatalf("idle sweep reclaimed %v, want [alt]", got)
	}
	live := map[string]string{} // family → type
	typeLine := regexp.MustCompile(`(?m)^# TYPE (csm_[a-z0-9_]+) ([a-z]+)$`)
	for _, m := range typeLine.FindAllStringSubmatch(do(t, s, http.MethodGet, "/metrics", "").Body.String(), -1) {
		live[m[1]] = m[2]
	}
	for _, fam := range fleetFamilies(t) {
		live[fam.Name] = string(fam.Type)
	}
	for _, name := range []string{"csm_refresh_total", "csm_tenant_quota", "csm_dataset_cache_budget", "csm_dataset_idle_reclaims_total", "csm_stage_duration_seconds"} {
		if live[name] == "" {
			t.Fatalf("the exposition lacks %s; the scenario no longer reaches every family", name)
		}
	}

	named := map[string]bool{}
	for _, name := range regexp.MustCompile(`csm_[a-z0-9_]+`).FindAllString(ops, -1) {
		named[name] = true
	}
	for name := range live {
		if !named[name] {
			t.Errorf("docs/operations.md does not name the %s family", name)
		}
	}
	for name := range named {
		if strings.HasSuffix(name, "_") {
			prefixes := false
			for fam := range live {
				prefixes = prefixes || strings.HasPrefix(fam, name)
			}
			if !prefixes {
				t.Errorf("docs/operations.md names %s*, which prefixes no emitted family", name)
			}
			continue
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && live[b] == "histogram" {
				base = b
			}
		}
		if live[base] == "" {
			t.Errorf("docs/operations.md names %s, which is not an emitted family", name)
		}
	}
}
