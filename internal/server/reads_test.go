package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/materials"
)

// raceEnabled reports a -race build (see race_test.go).
var raceEnabled bool

// readTenant is the tenant dataset the read-route golden covers beside
// the default corpus.
const readTenant = "reads-tenant"

// readTenantDoc is the first eight seed courses with every material's
// tags shuffled, a third of the materials listing one tag twice, and
// the language and description the seed leaves empty filled in mixed
// case, so the tenant's search answers differ from the default's.
func readTenantDoc(t testing.TB) string {
	t.Helper()
	rng := rand.New(rand.NewSource(24))
	languages := []string{"C++", "java", "Python", "CUDA"}
	words := []string{"Recursion", "threads", "Sorting", "MPI", "locks", "big-O"}
	doc := dataset.Document{}
	for _, c := range dataset.Courses()[:8] {
		cc := c.Clone()
		for i, m := range cc.Materials {
			mm := m.Clone()
			rng.Shuffle(len(mm.Tags), func(a, b int) { mm.Tags[a], mm.Tags[b] = mm.Tags[b], mm.Tags[a] })
			if rng.Intn(3) == 0 {
				mm.Tags = append(mm.Tags, mm.Tags[rng.Intn(len(mm.Tags))])
			}
			mm.Language = languages[rng.Intn(len(languages))]
			mm.Description = words[rng.Intn(len(words))] + " and " + words[rng.Intn(len(words))]
			cc.Materials[i] = mm
		}
		doc.Courses = append(doc.Courses, cc)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// readPaths lists the read routes' paths under one route prefix over a
// corpus: course pages, every course's detail and materials plus an
// unknown course, and search pages covering each query part, paging
// edge and malformed parameter.
func readPaths(courses []*materials.Course) []string {
	paths := []string{"courses", "courses?limit=3&offset=5", "courses?offset=25", "courses?limit=1&offset=9223372036854775807"}
	for _, c := range courses {
		paths = append(paths, "courses/"+c.ID, "courses/"+c.ID+"/materials")
	}
	paths = append(paths, "courses/no-such-course", "courses/no-such-course/materials")
	tags := courses[0].Materials[0].Tags
	exact := "search?tags=" + strings.Join(append([]string{"XX/unknown"}, tags...), ",")
	return append(paths,
		"search?prefix=AL",
		"search?prefix=SDF&limit=10",
		"search?prefix=PD&limit=7&offset=5",
		"search?prefix=AL/basic-analysis/&limit=4&offset=2",
		exact,
		exact+"&prefix=PD&limit=50",
		"search?tags=XX/unknown",
		"search?text=Lab%20UNCC&offset=40&limit=30",
		"search?text=SORTING%20threads&limit=30",
		"search?text=lecture&prefix=SDF&limit=15",
		"search?text=zzzq",
		"search?prefix=SDF&author=saule",
		"search?prefix=AL&level=ds&limit=25",
		"search?prefix=SDF&language=JAVA",
		"search?author=KRS",
		"search?level=pdc&limit=5&offset=3",
		"search?language=python&limit=40",
		"search?prefix=SDF&limit=1",
		"search?prefix=SDF&offset=100000",
		"search?prefix=SDF&limit=9223372036854775807",
		"search?prefix=SDF&offset=9223372036854775807",
		"search?prefix=",
		"search?prefix=AL&limit=banana",
		"search?prefix=AL&limit=0",
		"search?prefix=AL&offset=-1",
	)
}

// TestReadRouteGolden pins the bytes of every read route that encodes
// a value of its own, course pages, course details, course materials
// and search pages, on the un-scoped and the dataset-scoped prefix of
// the default corpus and on a tenant corpus. One line per path records
// the status, the body length and the body's SHA-256. Every path is
// then read again by four concurrent readers, and must answer the same
// bytes. Regenerate with -update only for an intended change of the
// API's bytes.
func TestReadRouteGolden(t *testing.T) {
	s := newQuietServer(t)
	if w := do(t, s, http.MethodPut, "/api/v1/datasets/"+readTenant, readTenantDoc(t)); w.Code != http.StatusOK {
		t.Fatalf("PUT %s: status %d\n%s", readTenant, w.Code, w.Body.Bytes())
	}
	var paths []string
	for _, pc := range []struct {
		prefix, ds string
	}{
		{"/api/v1/", dataset.DefaultID},
		{"/api/v1/datasets/" + dataset.DefaultID + "/", dataset.DefaultID},
		{"/api/v1/datasets/" + readTenant + "/", readTenant},
	} {
		snap, _ := s.Datasets().Get(pc.ds)
		for _, p := range readPaths(snap.Repo().Courses()) {
			paths = append(paths, pc.prefix+p)
		}
	}
	var got strings.Builder
	first := make([][]byte, len(paths))
	for i, path := range paths {
		rec := serve(s, path)
		first[i] = rec.Body.Bytes()
		fmt.Fprintf(&got, "%s %d %d %x\n", path, rec.Code, rec.Body.Len(), sha256.Sum256(rec.Body.Bytes()))
	}
	// Four readers at once, each from its own place in the list,
	// reading through the shared search indexes and envelope buffers.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range paths {
				i := (k + g*len(paths)/4) % len(paths)
				if body := serve(s, paths[i]).Body.Bytes(); string(body) != string(first[i]) {
					t.Errorf("GET %s: a concurrent read answered different bytes", paths[i])
				}
			}
		}()
	}
	wg.Wait()
	path := filepath.Join("testdata", "reads.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/server -run TestReadRouteGolden -update`): %v", err)
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

// TestWarmReadBytes bounds the bytes a warm read allocates through the
// whole handler stack, per route: a search page, a course's detail, a
// course's materials and a cached analysis answer. A search builds
// result strings for its page alone, a course view reads the course's
// tag row, and every body is indented in one pass into a reused
// buffer.
func TestWarmReadBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so a read's bytes are not the program's own")
	}
	s := newQuietServer(t)
	course := s.Datasets().Default().Repo().Courses()[0].ID
	for _, tc := range []struct {
		path string
		max  uint64
	}{
		{"/api/v1/search?limit=10&prefix=SDF", 32 << 10},
		{"/api/v1/courses/" + course, 24 << 10},
		{"/api/v1/courses/" + course + "/materials", 48 << 10},
		{"/api/v1/types?group=all", 8 << 10},
	} {
		for i := 0; i < 2; i++ { // a miss or an index build, then a warm read
			if rec := serve(s, tc.path); rec.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d", tc.path, rec.Code)
			}
		}
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		w := &discardWriter{h: http.Header{}}
		const reads = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reads; i++ {
			for k := range w.h {
				delete(w.h, k)
			}
			s.ServeHTTP(w, req)
		}
		runtime.ReadMemStats(&after)
		perRead := (after.TotalAlloc - before.TotalAlloc) / reads
		t.Logf("a warm GET %s allocates %d bytes", tc.path, perRead)
		if perRead > tc.max {
			t.Errorf("a warm GET %s allocates %d bytes, want at most %d", tc.path, perRead, tc.max)
		}
	}
}

// retainedBytes returns how much more heap is live, after two
// collections, once f has run than before: what f's result keeps. It
// runs f three times, each from a heap without the previous result, and
// returns the least. The runtime allocates beside a measured call now
// and then: a collection that restarts the world may start an OS
// thread, and the thread's m, its g0 and signal goroutines and its
// profiling stacks are heap objects that stay live (5,504 bytes on
// linux/amd64, go1.24; seen at GOMAXPROCS 2, never at 1). A thread is
// started once and reused, so one of three runs starts none.
func retainedBytes(f func() any) int64 {
	least := int64(math.MaxInt64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		kept := f()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(kept)
		least = min(least, int64(after.HeapAlloc)-int64(before.HeapAlloc))
	}
	return least
}

// TestIngestRetainedBytes bounds what one ingest of the seed corpus
// document keeps live: decoded as handleDatasetPut decodes it and
// stored by Put. The decoded document shares its tags with the
// vocabulary, its types with their constants and its repeated author
// and level strings with each other, and the stored repository holds
// no material index before a lookup asks for one.
func TestIngestRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state changes what a build keeps live")
	}
	var body bytes.Buffer
	if err := dataset.Repository().SaveJSON(&body); err != nil {
		t.Fatal(err)
	}
	materials := 0
	kept := retainedBytes(func() any {
		doc, err := dataset.DecodeDocument(bytes.NewReader(body.Bytes()), body.Len())
		if err != nil {
			t.Fatal(err)
		}
		snap, err := dataset.NewRegistry(nil).Put("measured", doc.Courses)
		if err != nil {
			t.Fatal(err)
		}
		materials = snap.Repo().NumMaterials()
		return snap
	})
	const max = 300 << 10
	t.Logf("one ingest of the seed corpus (%d materials, %d bytes) keeps %d bytes live", materials, body.Len(), kept)
	if kept > max {
		t.Errorf("one ingest of the seed corpus keeps %d bytes live, want at most %d", kept, max)
	}
}

// TestPutAllocatedBytes bounds what one in-process PUT of the seed
// corpus document allocates, garbage included: the body is read once
// into a buffer of its Content-Length and parsed in one pass into the
// corpus it stores. It takes the least of three PUTs, so the runtime's
// own allocations beside one do not count.
func TestPutAllocatedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state changes what a PUT allocates")
	}
	var body bytes.Buffer
	if err := dataset.Repository().SaveJSON(&body); err != nil {
		t.Fatal(err)
	}
	doc := body.String()
	s := newQuietServer(t)
	put := func() {
		if w := do(t, s, http.MethodPut, "/api/v1/datasets/measured", doc); w.Code != http.StatusOK {
			t.Fatalf("PUT: status %d\n%s", w.Code, w.Body.Bytes())
		}
	}
	put() // the first PUT registers the tenant
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		put()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	const max = 1200 << 10
	t.Logf("one PUT of the seed corpus (%d bytes) allocates %d bytes", len(doc), least)
	if least > max {
		t.Errorf("one PUT of the seed corpus allocates %d bytes, want at most %d", least, max)
	}
}

// TestAuditAnswerRetainedBytes bounds what a cached audit answer keeps
// live: its unit list is sized to the units the course covers, not to
// every CS2013 unit.
func TestAuditAnswerRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state changes what a build keeps live")
	}
	repo := dataset.Repository()
	compute := func(course string) *analyses.AuditResponse {
		v, err := analyses.Audit{}.Compute(context.Background(), repo, analyses.CourseParams{Course: course})
		if err != nil {
			t.Fatal(err)
		}
		return v.(*analyses.AuditResponse)
	}
	compute(repo.Courses()[0].ID) // any first-use state of the guidelines
	const limit = 3 << 10
	most := int64(0)
	for _, c := range repo.Courses() {
		units := 0
		kept := retainedBytes(func() any {
			answer := compute(c.ID)
			units = len(answer.Units)
			return answer
		})
		if kept > limit {
			t.Errorf("the audit answer of %s (%d units) keeps %d bytes live, want at most %d", c.ID, units, kept, limit)
		}
		most = max(most, kept)
	}
	t.Logf("an audit answer keeps at most %d bytes live", most)
}

// TestPutBuildsIndexOnFirstLookup: a repository built by Put holds no
// by-ID material index until a lookup asks for one; the first lookup
// builds it, and later ones allocate nothing.
func TestPutBuildsIndexOnFirstLookup(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state changes what a build allocates")
	}
	snap, err := dataset.NewRegistry(nil).Put("indexed", dataset.Courses())
	if err != nil {
		t.Fatal(err)
	}
	repo := snap.Repo()
	id := repo.Courses()[3].Materials[2].ID
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := repo.Material(id)
	runtime.ReadMemStats(&after)
	if m == nil || m.ID != id {
		t.Fatalf("Material(%q) = %v", id, m)
	}
	if n := after.Mallocs - before.Mallocs; n == 0 {
		t.Errorf("the first Material lookup allocated nothing: Put built the index before any lookup")
	} else {
		t.Logf("the first Material lookup makes %d allocations, %d bytes", n, after.TotalAlloc-before.TotalAlloc)
	}
	if n := testing.AllocsPerRun(100, func() { repo.Material(id) }); n != 0 {
		t.Errorf("a later Material lookup makes %.0f allocations, want 0", n)
	}
}

// TestWarmReadContentLength: over a real listener, a warm read whose
// body is past net/http's 2,048-byte buffer carries a Content-Length
// equal to its body and is not sent chunked.
func TestWarmReadContentLength(t *testing.T) {
	ts := httptest.NewServer(newQuietServer(t))
	defer ts.Close()
	const path = "/api/v1/types?group=all"
	for i := 0; i < 2; i++ { // the miss, then the warm read
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) <= 2048 {
			t.Fatalf("GET %s: a %d-byte body fits net/http's buffer, so it shows nothing", path, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("GET %s (read %d): Content-Length %d, Transfer-Encoding %v; want %d and none",
				path, i+1, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestHugePageLimit: a limit near the largest int with a non-zero
// offset answers the clipped page; offset+limit must not overflow into
// a panic.
func TestHugePageLimit(t *testing.T) {
	s := newQuietServer(t)
	for _, tc := range []struct {
		path string
		n    int
	}{
		{"/api/v1/courses?offset=5&limit=9223372036854775807", len(s.Datasets().Default().Repo().Courses()) - 5},
		{"/api/v1/datasets?offset=0&limit=9223372036854775807", 1},
		{"/api/v1/datasets?offset=1&limit=9223372036854775807", 0},
		{"/api/v1/search?prefix=SDF&offset=5&limit=9223372036854775807", -1},
	} {
		rec := serve(s, tc.path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", tc.path, rec.Code, rec.Body.Bytes())
		}
		var e struct {
			Data []json.RawMessage `json:"data"`
			Meta struct {
				Total int `json:"total"`
			} `json:"meta"`
		}
		decode(t, rec.Body.Bytes(), &e)
		want := tc.n
		if want < 0 { // all the hits past the offset
			want = e.Meta.Total - 5
		}
		if len(e.Data) != want {
			t.Errorf("GET %s: %d items, want %d", tc.path, len(e.Data), want)
		}
	}
}
