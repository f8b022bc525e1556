package server

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"csmaterials/internal/engine"
)

var update = flag.Bool("update", false, "rewrite testdata/responses.golden")

// newQuietServer builds a server without the background warmup, so
// every analysis key starts cold and the first read of it is a miss.
func newQuietServer(t testing.TB) *Server {
	t.Helper()
	s, err := NewWithOptions(Options{disableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// serve runs one in-process GET through the whole handler stack.
func serve(s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// analysisGrid lists the query strings read for every registered
// analysis: each group with two k or threshold values, each course
// (and one unknown course) for the per-course analyses, and two
// figures plus an unknown one — the delta oracle's parameter grid.
// An analysis the grid does not know fails the test.
func analysisGrid(t testing.TB, reg *engine.Registry, courses []string) []string {
	t.Helper()
	groups := []string{"all", "cs1", "ds", "dsalgo", "pdc"}
	courses = append(append([]string(nil), courses...), "no-such-course")
	var out []string
	add := func(name string, kv ...string) {
		v := url.Values{}
		for i := 0; i < len(kv); i += 2 {
			v.Set(kv[i], kv[i+1])
		}
		out = append(out, name+"?"+v.Encode())
	}
	for _, name := range reg.Names() {
		switch name {
		case "agreement":
			for _, g := range groups {
				add(name, "group", g, "threshold", "2")
				add(name, "group", g, "threshold", "3")
			}
		case "types":
			for _, g := range groups {
				add(name, "group", g, "k", "2")
				add(name, "group", g, "k", "3")
			}
		case "cluster":
			for _, g := range groups {
				add(name, "group", g, "k", "2")
				add(name, "group", g, "k", "4")
			}
		case "anchors", "audit":
			for _, c := range courses {
				add(name, "course", c)
			}
		case "pdcmaterials":
			for _, c := range courses {
				add(name, "course", c)
				add(name, "course", c, "limit", "3")
			}
		case "figures":
			add(name, "id", "1")
			add(name, "id", "3a")
			add(name, "id", "no-such-figure")
		default:
			t.Fatalf("the response golden has no parameter grid for analysis %q", name)
		}
	}
	return out
}

// TestResponseGolden pins the bytes of every analysis response: each
// registered analysis over the delta oracle's grid, on the un-scoped
// and the dataset-scoped route prefix, plus the per-course analyses as
// course views and the handlers that encode a value of their own. Each
// prefix reads a fresh server, and each path is read twice, a miss and
// then a hit. One line per read records the status, the body length
// and the body's SHA-256. Regenerate with -update only for an intended
// change of the API's bytes.
func TestResponseGolden(t *testing.T) {
	var got strings.Builder
	record := func(s *Server, path string) {
		for read := 1; read <= 2; read++ {
			rec := serve(s, path)
			fmt.Fprintf(&got, "%s #%d %d %d %x\n", path, read, rec.Code, rec.Body.Len(), sha256.Sum256(rec.Body.Bytes()))
		}
	}
	for _, prefix := range []string{"/api/v1/", "/api/v1/datasets/default/"} {
		s := newQuietServer(t)
		var courses []string
		for _, c := range s.Datasets().Default().Repo().Courses() {
			courses = append(courses, c.ID)
		}
		for _, q := range analysisGrid(t, s.Engine().Registry(), courses) {
			record(s, prefix+q)
		}

		// Course views and value-encoding handlers, on a server of
		// their own so the views' first reads miss too.
		s = newQuietServer(t)
		for _, c := range append(courses, "no-such-course") {
			for _, view := range []string{"anchors", "audit", "pdcmaterials", "materials"} {
				record(s, prefix+"courses/"+c+"/"+view)
			}
		}
		for _, path := range []string{
			"courses", "courses?limit=3&offset=18", "courses/" + courses[0],
			"search?prefix=AL&limit=3", "search?text=parallel", "figures/1", "figures/3a",
		} {
			record(s, prefix+path)
		}
	}
	path := filepath.Join("testdata", "responses.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/server -run TestResponseGolden -update`): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d reads recorded, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("response drifted from %s:\n got  %s\n want %s", path, gotLines[i], wantLines[i])
		}
	}
}

// TestFirstReadsShareOneAnswer: eight concurrent first reads of one
// cold key run one compute, and every body carries the same data
// bytes; exactly one of them reports the miss.
func TestFirstReadsShareOneAnswer(t *testing.T) {
	s := newQuietServer(t)
	var calls int32
	countCompute(t, s, "types", &calls)
	const n = 8
	bodies := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := serve(s, "/api/v1/types?group=all")
			if rec.Code != http.StatusOK {
				t.Errorf("read %d: status %d", i, rec.Code)
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("types Compute ran %d times for %d concurrent first reads, want 1", got, n)
	}
	misses := 0
	var first json.RawMessage
	for i, b := range bodies {
		var e struct {
			Data json.RawMessage `json:"data"`
			Meta struct {
				Cache string `json:"cache"`
			} `json:"meta"`
		}
		decode(t, b, &e)
		if e.Meta.Cache == "miss" {
			misses++
		}
		if i == 0 {
			first = e.Data
		} else if string(e.Data) != string(first) {
			t.Errorf("read %d's data differs from read 0's", i)
		}
	}
	if misses != 1 {
		t.Errorf("%d reads report a miss, want 1", misses)
	}
}

// discardWriter is a reusable ResponseWriter that keeps nothing, so an
// allocation count sees only the server's own work.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestWarmReadAllocations bounds what a warm analysis read allocates
// through the whole handler stack: a hit writes the answer's stored
// bytes instead of marshalling and indenting its value again.
func TestWarmReadAllocations(t *testing.T) {
	s := newQuietServer(t)
	const path = "/api/v1/types?group=all"
	for i := 0; i < 2; i++ { // the miss, then the first hit
		if rec := serve(s, path); rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := &discardWriter{h: http.Header{}}
	n := testing.AllocsPerRun(50, func() {
		for k := range w.h {
			delete(w.h, k)
		}
		s.ServeHTTP(w, req)
	})
	t.Logf("a warm %s read allocates %.0f times", path, n)
	if n > 64 {
		t.Errorf("a warm read allocates %.0f times, want at most 64", n)
	}
}
