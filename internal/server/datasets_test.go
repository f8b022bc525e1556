package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
)

// corpusDoc serializes the first n seed courses as an ingestable
// dataset document ({"courses": [...]}). Marshalling round-trips the
// courses, so the registry builds fresh objects — the seed corpus is
// never aliased.
func corpusDoc(t *testing.T, n int) string {
	t.Helper()
	doc := dataset.Document{Courses: dataset.Courses()[:n]}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// dsEnv decodes an envelope whose meta carries dataset identity.
type dsEnv struct {
	Data json.RawMessage `json:"data"`
	Meta struct {
		Cache    string `json:"cache"`
		Key      string `json:"key"`
		Dataset  string `json:"dataset"`
		Revision uint64 `json:"revision"`
	} `json:"meta"`
}

func putDataset(t *testing.T, s *Server, id string, n int) dsEnv {
	t.Helper()
	w := do(t, s, http.MethodPut, "/api/v1/datasets/"+id, corpusDoc(t, n))
	if w.Code != http.StatusOK {
		t.Fatalf("PUT dataset %s: status %d\n%s", id, w.Code, w.Body.Bytes())
	}
	var e dsEnv
	decode(t, w.Body.Bytes(), &e)
	return e
}

// agreementCourses fetches an agreement endpoint and returns the
// envelope plus the analysis's course roster length — the simplest
// corpus fingerprint.
func agreementCourses(t *testing.T, s *Server, path string) (dsEnv, int) {
	t.Helper()
	w := do(t, s, http.MethodGet, path, "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", path, w.Code, w.Body.Bytes())
	}
	var e dsEnv
	decode(t, w.Body.Bytes(), &e)
	var data struct {
		Courses []string `json:"courses"`
	}
	decode(t, e.Data, &data)
	return e, len(data.Courses)
}

// TestDatasetCatalog covers GET /api/v1/datasets and
// GET /api/v1/datasets/{id}: the default dataset is always first, PUT
// extends the catalog, and metadata carries revision and corpus size.
func TestDatasetCatalog(t *testing.T) {
	s := newObsServer(t, Options{})

	w := do(t, s, http.MethodGet, "/api/v1/datasets", "")
	if w.Code != http.StatusOK {
		t.Fatalf("catalog: status %d\n%s", w.Code, w.Body.Bytes())
	}
	var list env
	decode(t, w.Body.Bytes(), &list)
	var metas []dataset.Meta
	decode(t, list.Data, &metas)
	if len(metas) != 1 || metas[0].ID != "default" || metas[0].Revision != 1 || metas[0].Courses != 20 {
		t.Fatalf("initial catalog = %+v", metas)
	}
	if list.Meta.Total != 1 || list.Meta.Limit != 20 {
		t.Errorf("catalog meta = %+v", list.Meta)
	}

	putDataset(t, s, "alt", 3)
	w = do(t, s, http.MethodGet, "/api/v1/datasets", "")
	decode(t, w.Body.Bytes(), &list)
	metas = nil
	decode(t, list.Data, &metas)
	if len(metas) != 2 || metas[1].ID != "alt" || metas[1].Courses != 3 {
		t.Fatalf("catalog after ingest = %+v", metas)
	}

	w = do(t, s, http.MethodGet, "/api/v1/datasets/alt", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET dataset meta: status %d", w.Code)
	}
	var one env
	decode(t, w.Body.Bytes(), &one)
	var m dataset.Meta
	decode(t, one.Data, &m)
	if m.ID != "alt" || m.Revision != 1 || m.Courses != 3 || m.Materials == 0 {
		t.Errorf("dataset meta = %+v", m)
	}

	for path, wantCode := range map[string]struct {
		status int
		code   string
	}{
		"/api/v1/datasets/ghost":           {http.StatusNotFound, "not_found"},
		"/api/v1/datasets/Bad%7C":          {http.StatusBadRequest, "bad_request"},
		"/api/v1/datasets/UPPER":           {http.StatusBadRequest, "bad_request"},
		"/api/v1/datasets/ghost/agreement": {http.StatusNotFound, "not_found"},
	} {
		w := do(t, s, http.MethodGet, path, "")
		if w.Code != wantCode.status {
			t.Errorf("GET %s: status %d, want %d", path, w.Code, wantCode.status)
			continue
		}
		var ee errEnv
		decode(t, w.Body.Bytes(), &ee)
		if ee.Error.Code != wantCode.code {
			t.Errorf("GET %s: code %q, want %q", path, ee.Error.Code, wantCode.code)
		}
	}
}

// TestDatasetIngestAnalyzeReingest is the lifecycle walk the API
// redesign exists for: ingest a dataset, analyze it (cold then warm),
// re-ingest a different corpus, and verify the revision bump precisely
// invalidated the dataset's cache — while the default dataset's cache
// stays warm throughout.
func TestDatasetIngestAnalyzeReingest(t *testing.T) {
	s := newObsServer(t, Options{})

	// Warm the default dataset's agreement entry and capture the warm
	// envelope bytes for the byte-identity check at the end.
	do(t, s, http.MethodGet, "/api/v1/agreement", "")
	legacyBefore := do(t, s, http.MethodGet, "/api/v1/agreement", "")
	var legacyEnv env
	decode(t, legacyBefore.Body.Bytes(), &legacyEnv)
	if legacyEnv.Meta.Cache != "hit" {
		t.Fatalf("warm legacy request = %q, want hit", legacyEnv.Meta.Cache)
	}

	// Ingest revision 1 (3 courses) and analyze it.
	ing := putDataset(t, s, "alt", 3)
	var meta1 dataset.Meta
	decode(t, ing.Data, &meta1)
	if meta1.Revision != 1 {
		t.Fatalf("first ingest revision = %d", meta1.Revision)
	}
	e, n := agreementCourses(t, s, "/api/v1/datasets/alt/agreement")
	if e.Meta.Cache != "miss" || e.Meta.Dataset != "alt" || e.Meta.Revision != 1 || n != 3 {
		t.Fatalf("cold scoped analyze = %+v over %d courses", e.Meta, n)
	}
	e, _ = agreementCourses(t, s, "/api/v1/datasets/alt/agreement")
	if e.Meta.Cache != "hit" {
		t.Fatalf("warm scoped analyze = %q, want hit", e.Meta.Cache)
	}

	// Re-ingest with a different corpus: revision 2, cache invalidated.
	w := do(t, s, http.MethodPut, "/api/v1/datasets/alt", corpusDoc(t, 2))
	if w.Code != http.StatusOK {
		t.Fatalf("re-ingest: status %d\n%s", w.Code, w.Body.Bytes())
	}
	var re struct {
		Data dataset.Meta `json:"data"`
		Meta IngestMeta   `json:"meta"`
	}
	decode(t, w.Body.Bytes(), &re)
	if re.Data.Revision != 2 || re.Data.Courses != 2 {
		t.Fatalf("re-ingest meta = %+v", re.Data)
	}
	if re.Meta.Invalidated == 0 {
		t.Error("re-ingest must report invalidated cache entries")
	}
	e, n = agreementCourses(t, s, "/api/v1/datasets/alt/agreement")
	if e.Meta.Cache != "miss" || e.Meta.Revision != 2 || n != 2 {
		t.Fatalf("post-reingest analyze = %+v over %d courses, want rev-2 miss over 2", e.Meta, n)
	}

	// The default dataset never noticed: same bytes, still a cache hit.
	legacyAfter := do(t, s, http.MethodGet, "/api/v1/agreement", "")
	if legacyAfter.Body.String() != legacyBefore.Body.String() {
		t.Errorf("legacy envelope changed across another dataset's ingest:\nbefore %s\nafter  %s",
			legacyBefore.Body.String(), legacyAfter.Body.String())
	}
}

// TestPutBodyFraming: a PUT answers as a streaming decode of its body
// does, whatever the framing. Bytes after the document are not read. A
// body longer than MaxDatasetBody is accepted when its document ends
// within the limit, and answers "request body too large" when it does
// not. A body sent without a Content-Length, or with one larger than
// the bytes sent, is read to its end.
func TestPutBodyFraming(t *testing.T) {
	s := newQuietServer(t)
	doc := corpusDoc(t, 2)
	pad := strings.Repeat(" ", MaxDatasetBody)
	for _, tc := range []struct {
		name   string
		body   string
		length int64 // the Content-Length sent: -1 for none, 0 for the body's
		status int
		msg    string
	}{
		{"bytes after the document", doc + `{"courses":"more"`, 0, http.StatusOK, ""},
		{"over the limit, the document within it", doc + pad, 0, http.StatusOK, ""},
		{"over the limit, the document past it", `{"courses":[` + pad + `]}`, 0, http.StatusBadRequest,
			"bad dataset document: http: request body too large"},
		{"no Content-Length", doc, -1, http.StatusOK, ""},
		{"no Content-Length, a cut document", doc[:len(doc)/2], -1, http.StatusBadRequest,
			"bad dataset document: unexpected EOF"},
		{"a Content-Length past the bytes sent", doc, int64(len(doc)) + 100, http.StatusOK, ""},
		{"a Content-Length past the bytes sent, a cut document", doc[:len(doc)/2], int64(len(doc)), http.StatusBadRequest,
			"bad dataset document: unexpected EOF"},
	} {
		r := httptest.NewRequest(http.MethodPut, "/api/v1/datasets/framed", io.MultiReader(strings.NewReader(tc.body)))
		if tc.length == 0 {
			r.ContentLength = int64(len(tc.body))
		} else {
			r.ContentLength = tc.length
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d\n%s", tc.name, w.Code, tc.status, w.Body.Bytes())
			continue
		}
		if tc.status != http.StatusOK {
			var e errEnv
			decode(t, w.Body.Bytes(), &e)
			if e.Error.Message != tc.msg {
				t.Errorf("%s: error %q, want %q", tc.name, e.Error.Message, tc.msg)
			}
			continue
		}
		var ok struct {
			Data dataset.Meta `json:"data"`
		}
		decode(t, w.Body.Bytes(), &ok)
		if ok.Data.Courses != 2 {
			t.Errorf("%s: stored %d courses, want 2", tc.name, ok.Data.Courses)
		}
	}
}

// TestScopedMetaShape pins the envelope contract: scoped responses
// carry dataset identity in meta, un-scoped aliases keep the exact
// pre-datasets meta keys (no dataset leakage).
func TestScopedMetaShape(t *testing.T) {
	s := newObsServer(t, Options{})

	var raw struct {
		Meta map[string]json.RawMessage `json:"meta"`
	}
	w := do(t, s, http.MethodGet, "/api/v1/datasets/default/cluster", "")
	decode(t, w.Body.Bytes(), &raw)
	for _, key := range []string{"cache", "key", "dataset", "revision"} {
		if _, ok := raw.Meta[key]; !ok {
			t.Errorf("scoped meta missing %q: %s", key, w.Body.Bytes())
		}
	}

	w = do(t, s, http.MethodGet, "/api/v1/cluster", "")
	raw.Meta = nil
	decode(t, w.Body.Bytes(), &raw)
	if _, ok := raw.Meta["dataset"]; ok {
		t.Errorf("un-scoped meta must not carry dataset: %s", w.Body.Bytes())
	}
	if _, ok := raw.Meta["cache"]; !ok {
		t.Errorf("un-scoped meta missing cache: %s", w.Body.Bytes())
	}
}

// TestScopedQueryRoutes covers the non-analysis scoped families:
// courses, course detail, course views, search, and figures resolve
// against the scoped dataset's corpus.
func TestScopedQueryRoutes(t *testing.T) {
	s := newObsServer(t, Options{})
	putDataset(t, s, "alt", 2)

	w := do(t, s, http.MethodGet, "/api/v1/datasets/alt/courses", "")
	var list env
	decode(t, w.Body.Bytes(), &list)
	if list.Meta.Total != 2 {
		t.Errorf("scoped courses total = %d, want 2", list.Meta.Total)
	}

	// A course present in the scoped corpus, fetched scoped and via a view.
	var summaries []CourseSummary
	decode(t, list.Data, &summaries)
	id := summaries[0].ID
	if w := do(t, s, http.MethodGet, "/api/v1/datasets/alt/courses/"+id, ""); w.Code != http.StatusOK {
		t.Errorf("scoped course detail: status %d", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/api/v1/datasets/alt/courses/"+id+"/materials", ""); w.Code != http.StatusOK {
		t.Errorf("scoped course materials: status %d", w.Code)
	}

	// A course outside the 2-course corpus 404s scoped, 200s un-scoped.
	outside := dataset.AllCourseIDs()[10]
	if w := do(t, s, http.MethodGet, "/api/v1/datasets/alt/courses/"+outside, ""); w.Code != http.StatusNotFound {
		t.Errorf("out-of-corpus course: status %d, want 404", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/api/v1/courses/"+outside, ""); w.Code != http.StatusOK {
		t.Errorf("default course: status %d, want 200", w.Code)
	}

	// Scoped search ranks only the scoped corpus.
	wAlt := do(t, s, http.MethodGet, "/api/v1/datasets/alt/search?prefix=AL", "")
	wDef := do(t, s, http.MethodGet, "/api/v1/search?prefix=AL", "")
	var altHits, defHits env
	decode(t, wAlt.Body.Bytes(), &altHits)
	decode(t, wDef.Body.Bytes(), &defHits)
	if altHits.Meta.Total >= defHits.Meta.Total {
		t.Errorf("scoped search total %d, want fewer than default's %d", altHits.Meta.Total, defHits.Meta.Total)
	}

	// Scoped figures carry dataset meta too.
	w = do(t, s, http.MethodGet, "/api/v1/datasets/alt/figures/3a", "")
	if w.Code != http.StatusOK {
		t.Fatalf("scoped figure: status %d\n%s", w.Code, w.Body.Bytes())
	}
	var fe dsEnv
	decode(t, w.Body.Bytes(), &fe)
	if fe.Meta.Dataset != "alt" {
		t.Errorf("scoped figure meta dataset = %q", fe.Meta.Dataset)
	}
}

// TestDatasetDelete covers the delete taxonomy: default is protected
// (409 dataset_protected), unknown is 404, and a real delete removes
// the dataset from every surface.
func TestDatasetDelete(t *testing.T) {
	s := newObsServer(t, Options{})

	w := do(t, s, http.MethodDelete, "/api/v1/datasets/default", "")
	if w.Code != http.StatusConflict {
		t.Fatalf("DELETE default: status %d, want 409", w.Code)
	}
	var ee errEnv
	decode(t, w.Body.Bytes(), &ee)
	if ee.Error.Code != "dataset_protected" {
		t.Errorf("DELETE default code = %q, want dataset_protected", ee.Error.Code)
	}

	if w := do(t, s, http.MethodDelete, "/api/v1/datasets/ghost", ""); w.Code != http.StatusNotFound {
		t.Errorf("DELETE ghost: status %d, want 404", w.Code)
	}

	putDataset(t, s, "alt", 2)
	agreementCourses(t, s, "/api/v1/datasets/alt/agreement") // populate its cache
	w = do(t, s, http.MethodDelete, "/api/v1/datasets/alt", "")
	if w.Code != http.StatusOK {
		t.Fatalf("DELETE alt: status %d\n%s", w.Code, w.Body.Bytes())
	}
	var del struct {
		Data DatasetDeleted `json:"data"`
	}
	decode(t, w.Body.Bytes(), &del)
	if del.Data.ID != "alt" || del.Data.Invalidated == 0 {
		t.Errorf("delete payload = %+v, want invalidated entries reported", del.Data)
	}
	if w := do(t, s, http.MethodGet, "/api/v1/datasets/alt/agreement", ""); w.Code != http.StatusNotFound {
		t.Errorf("deleted dataset still analyzable: status %d", w.Code)
	}
	// Method probing on the dataset routes advertises the full set.
	w = do(t, s, http.MethodPost, "/api/v1/datasets/alt", "")
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST dataset: status %d, want 405", w.Code)
	}
	if allow := w.Header().Get("Allow"); !strings.Contains(allow, "PUT") || !strings.Contains(allow, "DELETE") {
		t.Errorf("Allow = %q, want PUT and DELETE advertised", allow)
	}
}

// TestBatchDatasetItems: batch items select datasets independently;
// malformed and unknown dataset IDs fail per-item without aborting the
// batch, and legacy items keep their exact envelope shape.
func TestBatchDatasetItems(t *testing.T) {
	s := newObsServer(t, Options{})
	putDataset(t, s, "alt", 3)

	body := `{"items":[
		{"analysis":"agreement"},
		{"analysis":"agreement","dataset":"alt"},
		{"analysis":"agreement","dataset":"No|Good"},
		{"analysis":"agreement","dataset":"ghost"}
	]}`
	w := do(t, s, http.MethodPost, "/api/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d\n%s", w.Code, w.Body.Bytes())
	}
	var resp struct {
		Data []engine.BatchResult `json:"data"`
	}
	decode(t, w.Body.Bytes(), &resp)
	if len(resp.Data) != 4 {
		t.Fatalf("batch results = %d, want 4", len(resp.Data))
	}
	if r := resp.Data[0]; r.Error != nil || r.Dataset != "" {
		t.Errorf("legacy item = %+v, want success with no dataset echo", r)
	}
	if r := resp.Data[1]; r.Error != nil || r.Dataset != "alt" {
		t.Errorf("scoped item = %+v, want success echoing alt", r)
	}
	if r := resp.Data[2]; r.Error == nil || r.Error.Status != http.StatusBadRequest {
		t.Errorf("malformed dataset item = %+v, want per-item 400", r)
	}
	if r := resp.Data[3]; r.Error == nil || r.Error.Status != http.StatusNotFound {
		t.Errorf("unknown dataset item = %+v, want per-item 404", r)
	}
}

// TestMetricsDatasetIsolation is the acceptance walk: ingest a second
// dataset, run scoped and un-scoped requests, and verify /metrics
// separates the two datasets' serving stats under the dataset label.
func TestMetricsDatasetIsolation(t *testing.T) {
	s := newObsServer(t, Options{})
	putDataset(t, s, "alt", 3)

	do(t, s, http.MethodGet, "/api/v1/agreement", "")
	do(t, s, http.MethodGet, "/api/v1/datasets/alt/agreement", "")
	do(t, s, http.MethodGet, "/api/v1/datasets/alt/agreement", "")

	text := do(t, s, http.MethodGet, "/metrics", "").Body.String()
	for _, series := range []string{
		`csm_analysis_computes_total{analysis="agreement",dataset="default"} 1`,
		`csm_analysis_computes_total{analysis="agreement",dataset="alt"} 1`,
		`csm_analysis_cache_hits_total{analysis="agreement",dataset="alt"} 1`,
		`csm_breaker_state{analysis="agreement",dataset="alt"} 0`,
		`csm_breaker_state{analysis="agreement",dataset="default"} 0`,
		`csm_datasets 2`,
		`csm_dataset_revision{dataset="alt"} 1`,
		`csm_dataset_revision{dataset="default"} 1`,
		`csm_dataset_courses{dataset="alt"} 3`,
		`csm_stage_duration_seconds_count{analysis="agreement",dataset="alt",stage="compute"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
}

// TestConcurrentIngestNoTornReads hammers a dataset with concurrent
// re-ingests while readers analyze it. Every response must reflect
// exactly one revision's corpus — the 3-course or the 2-course one,
// never a blend — because computes hold an immutable snapshot and
// store under the digest of that snapshot's courses.
func TestConcurrentIngestNoTornReads(t *testing.T) {
	s := newObsServer(t, Options{})
	putDataset(t, s, "alt", 3)

	const readers, writes = 4, 6
	var wg sync.WaitGroup
	errs := make(chan string, readers*64)
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := do(t, s, http.MethodGet, "/api/v1/datasets/alt/agreement", "")
				if w.Code != http.StatusOK {
					errs <- fmt.Sprintf("reader status %d: %s", w.Code, w.Body.Bytes())
					return
				}
				var e dsEnv
				if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
					errs <- err.Error()
					return
				}
				var data struct {
					Courses []string `json:"courses"`
				}
				if err := json.Unmarshal(e.Data, &data); err != nil {
					errs <- err.Error()
					return
				}
				n := len(data.Courses)
				if n != 2 && n != 3 {
					errs <- fmt.Sprintf("torn read: %d courses (rev %d)", n, e.Meta.Revision)
					return
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		n := 2 + i%2 // alternate 2- and 3-course corpora
		w := do(t, s, http.MethodPut, "/api/v1/datasets/alt", corpusDoc(t, n))
		if w.Code != http.StatusOK {
			t.Errorf("ingest %d: status %d", i, w.Code)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	// Sequential epilogue: the final revision serves its own corpus cold
	// (every earlier revision's entries were invalidated or unreachable).
	e, n := agreementCourses(t, s, "/api/v1/datasets/alt/agreement")
	if e.Meta.Revision != writes+1 {
		t.Errorf("final revision = %d, want %d", e.Meta.Revision, writes+1)
	}
	wantCourses := 2 + (writes-1)%2
	if n != wantCourses {
		t.Errorf("final corpus = %d courses, want %d", n, wantCourses)
	}
}

// TestDataDirOption: Options.DataDir registers *.json documents at
// startup and they serve scoped immediately; a broken directory fails
// construction instead of serving partially.
func TestDataDirOption(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "boot.json"), []byte(corpusDoc(t, 2)), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newObsServer(t, Options{DataDir: dir})
	e, n := agreementCourses(t, s, "/api/v1/datasets/boot/agreement")
	if e.Meta.Dataset != "boot" || n != 2 {
		t.Fatalf("data-dir dataset analyze = %+v over %d courses", e.Meta, n)
	}

	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithOptions(Options{DataDir: dir, disableWarmup: true}); err == nil {
		t.Error("broken data-dir must fail construction")
	}
}

// TestReadyzDatasets: /readyz reports per-dataset warmup state — the
// default gates overall readiness, ingested datasets report their own.
func TestReadyzDatasets(t *testing.T) {
	s := newObsServer(t, Options{})

	w := do(t, s, http.MethodGet, "/readyz", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-warmup readyz: status %d", w.Code)
	}
	var ready struct {
		Data ReadyResponse `json:"data"`
	}
	decode(t, w.Body.Bytes(), &ready)
	if ready.Data.Datasets["default"].Status != "starting" {
		t.Errorf("pre-warmup default state = %+v", ready.Data.Datasets)
	}

	s.warmup(context.Background())
	w = do(t, s, http.MethodGet, "/readyz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("post-warmup readyz: status %d\n%s", w.Code, w.Body.Bytes())
	}
	decode(t, w.Body.Bytes(), &ready)
	if ready.Data.Datasets["default"].Status != "ready" {
		t.Errorf("post-warmup default state = %+v", ready.Data.Datasets)
	}

	putDataset(t, s, "alt", 2)
	w = do(t, s, http.MethodGet, "/readyz", "")
	decode(t, w.Body.Bytes(), &ready)
	// disableWarmup servers mark ingests ready synchronously.
	if ready.Data.Datasets["alt"].Status != "ready" {
		t.Errorf("ingested dataset state = %+v", ready.Data.Datasets)
	}
}
