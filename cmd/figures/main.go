// Command figures regenerates every figure of the paper from the
// synthesized dataset and writes text plus SVG artifacts to an output
// directory.
//
// Figure generation goes through the same registered "figures" engine
// analysis the HTTP API serves at /api/v1/figures/{id}: the command
// enumerates the figure IDs and dispatches each by name, so the CLI
// and the API cannot drift apart on what a figure is.
//
// Usage:
//
//	figures [-out DIR] [-fig ID]
//
// With no -fig, every figure is produced. Figure IDs: 1, 2, 3a, 3b, 4, 5,
// 6, 7, 8, anchors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"

	"csmaterials/internal/core"
	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/serving"
)

func main() {
	out := flag.String("out", "out", "output directory for text and SVG artifacts")
	fig := flag.String("fig", "", "single figure ID to generate (default: all)")
	quiet := flag.Bool("q", false, "do not echo figure text to stdout")
	flag.Parse()

	if err := run(os.Stdout, *out, *fig, *quiet); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, outDir, only string, quiet bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	reg, err := analyses.Default()
	if err != nil {
		return err
	}
	exec := engine.NewExecutor(reg, engine.ExecutorOptions{
		Datasets: dataset.NewRegistry(nil),
		Cache:    serving.NewCache(16),
	})

	found := false
	for _, f := range core.Figures() {
		if only != "" && f.ID != only {
			continue
		}
		found = true
		v, _, err := exec.Run(context.Background(), "figures", url.Values{"id": []string{f.ID}})
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.ID, err)
		}
		art := v.(*core.Artifact)
		txtPath := filepath.Join(outDir, art.ID+".txt")
		if err := os.WriteFile(txtPath, []byte(art.Text), 0o644); err != nil {
			return err
		}
		for name, svg := range art.SVGs {
			if err := os.WriteFile(filepath.Join(outDir, name), []byte(svg), 0o644); err != nil {
				return err
			}
		}
		// Console/test-buffer echo; a failed write has no recovery path.
		if !quiet {
			_, _ = fmt.Fprintf(w, "=== figure %s ===\n%s\n", f.ID, art.Text)
		} else {
			_, _ = fmt.Fprintf(w, "wrote %s (%d SVGs)\n", txtPath, len(art.SVGs))
		}
	}
	if !found {
		return fmt.Errorf("unknown figure ID %q", only)
	}
	return nil
}
