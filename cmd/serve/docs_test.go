package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestClusterDocsCoverFleetFlags pins docs/cluster.md to the live flag
// surface: every fleet flag the binary registers must be documented,
// and fleetFlagNames itself must stay in sync with the flag set — a new
// -fleet-something flag that is neither listed nor documented fails CI.
func TestClusterDocsCoverFleetFlags(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "cluster.md"))
	if err != nil {
		t.Fatalf("docs/cluster.md unreadable: %v", err)
	}
	doc := string(raw)

	var cfg config
	fs := newFlagSet(&cfg)
	for _, name := range fleetFlagNames {
		if fs.Lookup(name) == nil {
			t.Errorf("fleetFlagNames lists -%s, which cmd/serve does not register", name)
			continue
		}
		if !strings.Contains(doc, "-"+name) {
			t.Errorf("docs/cluster.md does not document the -%s flag", name)
		}
	}
}

// TestOperationsDocsCoverFlags pins the runbooks to the live flag set
// in both directions: every flag cmd/serve registers is named as -flag
// in docs/operations.md or docs/cluster.md, and every row of their flag
// tables names a registered flag, so a deleted flag cannot linger in a
// table.
func TestOperationsDocsCoverFlags(t *testing.T) {
	var docs string
	for _, name := range []string{"operations.md", "cluster.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", "docs", name))
		if err != nil {
			t.Fatalf("docs/%s unreadable: %v", name, err)
		}
		docs += string(raw)
	}

	var cfg config
	fs := newFlagSet(&cfg)
	fs.VisitAll(func(f *flag.Flag) {
		named := regexp.MustCompile(`(^|[^a-z0-9-])-` + regexp.QuoteMeta(f.Name) + `($|[^a-z0-9-])`)
		if !named.MatchString(docs) {
			t.Errorf("neither docs/operations.md nor docs/cluster.md names the -%s flag", f.Name)
		}
	})

	row := regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|")
	rows := row.FindAllStringSubmatch(docs, -1)
	if len(rows) == 0 {
		t.Fatal("found no flag-table rows in docs/operations.md or docs/cluster.md")
	}
	for _, m := range rows {
		if fs.Lookup(m[1]) == nil {
			t.Errorf("a flag table documents -%s, which cmd/serve does not register", m[1])
		}
	}
}
