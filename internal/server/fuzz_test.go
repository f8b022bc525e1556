package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
)

// putBody renders courses as a PUT /api/v1/datasets/{ds} document.
func putBody(t testing.TB, courses ...*materials.Course) []byte {
	t.Helper()
	b, err := json.Marshal(dataset.Document{Courses: courses})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzPutDocument sends its input as the body of
// PUT /api/v1/datasets/{ds}. The server must answer as a reference
// ingest does, which decodes with plain encoding/json (unknown fields
// disallowed) and calls Registry.Put with no string sharing: the same
// status and the same error text. An accepted document must be stored
// with every exported accessor of its repository equal to the
// reference's, and with its strings shared: every tag the vocabulary
// knows shares the vocabulary's storage, every type its constant's,
// and equal authors, languages, course levels and dataset names one
// storage each.
func FuzzPutDocument(f *testing.F) {
	var seed bytes.Buffer
	if err := dataset.Repository().SaveJSON(&seed); err != nil {
		f.Fatal(err)
	}
	small := func(edit func(a, b *materials.Course)) []byte {
		var cs []*materials.Course
		for _, c := range dataset.Courses()[:2] {
			c = c.Clone()
			c.Materials = c.Materials[:3]
			for i, m := range c.Materials {
				c.Materials[i] = m.Clone()
			}
			cs = append(cs, c)
		}
		cs[0].Materials[0].Language = "Java"
		cs[1].Materials[1].Language = "Java"
		cs[0].Materials[1].Datasets = []string{"ocw", "ocw"}
		if edit != nil {
			edit(cs[0], cs[1])
		}
		return putBody(f, cs...)
	}
	tag := dataset.Courses()[0].Materials[0].Tags[0]
	escaped := strings.Replace(string(small(nil)), `"`+tag+`"`, `"`+strings.Replace(tag, "/", `\u002f`, 1)+`"`, 1)
	for _, body := range [][]byte{
		seed.Bytes(),
		small(nil),
		[]byte(escaped),
		[]byte(strings.Replace(string(small(nil)), `"title"`, `"titel"`, 1)), // an unknown field
		[]byte(strings.Replace(string(small(nil)), `{"courses"`, `{"extra":1,"courses"`, 1)),
		small(func(a, _ *materials.Course) { a.Materials[0].Tags = append(a.Materials[0].Tags, "NOPE/not-a-tag") }),
		small(func(a, b *materials.Course) { b.Materials[2].ID = a.Materials[0].ID }), // an ID in two courses
		small(func(a, _ *materials.Course) { a.Materials[1].Tags[0] = strings.ToUpper(a.Materials[1].Tags[0]) }),
		small(func(a, b *materials.Course) { a.Materials[0].Tags, b.Materials[0].Tags = nil, []string{} }),
		small(func(a, _ *materials.Course) { a.Materials[2].Type = "Lecture" }),
		[]byte(`{"courses":[null]}`),
		[]byte(`{"courses":[{"id":"x","name":"X","group":"CS1","materials":[null]}]}`),
		[]byte(`{"courses":[]}`),
		[]byte(`null`),
		[]byte(`not json`),
		nil,
	} {
		f.Add(body)
	}
	s := newQuietServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		const ds = "fuzz"
		w := do(t, s, http.MethodPut, "/api/v1/datasets/"+ds, string(body))
		refStatus, refMessage, ref := referencePut(ds, body)
		if w.Code != refStatus {
			t.Fatalf("PUT answered %d, the reference %d (%s)\n%s", w.Code, refStatus, refMessage, w.Body.Bytes())
		}
		if refStatus != http.StatusOK {
			var e errEnv
			decode(t, w.Body.Bytes(), &e)
			if e.Error.Message != refMessage {
				t.Fatalf("PUT error %q, the reference's %q", e.Error.Message, refMessage)
			}
			return
		}
		snap, ok := s.Datasets().Get(ds)
		if !ok {
			t.Fatal("an accepted PUT stored no dataset")
		}
		got := snap.Repo()
		if a, b := accessors(got), accessors(ref); !reflect.DeepEqual(a, b) {
			t.Fatalf("stored repository:\n%v\nreference:\n%v", a, b)
		}
		checkShared(t, got)
	})
}

// FuzzBatchBody sends its input as the body of POST /api/v1/batch. The
// server must never panic or answer 5xx. It answers 400 bad_request
// exactly when a reference strict decode (plain encoding/json, unknown
// fields disallowed) fails or the item count is 0 or above
// engine.MaxBatchItems, and otherwise 200 with meta.items results in
// input order: result i echoes item i's analysis and dataset and
// carries exactly one of data and error. The seeds are the regression
// corpus in testdata/fuzz/FuzzBatchBody: the delta oracle's grid over
// one course of the default dataset as one batch, an empty item list,
// MaxBatchItems+1 items, an unknown field, an unknown analysis and an
// unknown dataset.
func FuzzBatchBody(f *testing.F) {
	s := newQuietServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<20 {
			return // past the server's body limit, which the reference does not model
		}
		w := do(t, s, http.MethodPost, "/api/v1/batch", string(body))
		if w.Code >= 500 {
			t.Fatalf("batch answered %d\n%s", w.Code, w.Body.Bytes())
		}
		var req BatchRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil || len(req.Items) == 0 || len(req.Items) > engine.MaxBatchItems {
			var e errEnv
			if w.Code == http.StatusBadRequest {
				decode(t, w.Body.Bytes(), &e)
			}
			if w.Code != http.StatusBadRequest || e.Error.Code != "bad_request" {
				t.Fatalf("batch of %d items (decode error %v) answered %d, want 400 bad_request\n%s",
					len(req.Items), err, w.Code, w.Body.Bytes())
			}
			return
		}
		if w.Code != http.StatusOK {
			t.Fatalf("batch of %d valid items answered %d\n%s", len(req.Items), w.Code, w.Body.Bytes())
		}
		var got struct {
			Data []struct {
				Analysis string          `json:"analysis"`
				Dataset  string          `json:"dataset"`
				Data     json.RawMessage `json:"data"`
				Error    *struct {
					Code string `json:"code"`
				} `json:"error"`
			} `json:"data"`
			Meta BatchMeta `json:"meta"`
		}
		decode(t, w.Body.Bytes(), &got)
		if got.Meta.Items != len(req.Items) || len(got.Data) != len(req.Items) {
			t.Fatalf("%d items answered %d results, meta.items %d", len(req.Items), len(got.Data), got.Meta.Items)
		}
		for i, it := range req.Items {
			r := got.Data[i]
			if r.Analysis != it.Analysis || r.Dataset != it.Dataset || (r.Error == nil) == (len(r.Data) == 0) {
				t.Fatalf("result %d = %+v for item %+v", i, r, it)
			}
		}
	})
}

// referencePut is the ingest without sharing: plain encoding/json with
// unknown fields disallowed, then Registry.Put. It returns the status
// and error message the API should answer, and the repository stored.
func referencePut(ds string, body []byte) (int, string, *materials.Repository) {
	var doc dataset.Document
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return http.StatusBadRequest, "bad dataset document: " + err.Error(), nil
	}
	snap, err := dataset.NewRegistry(nil).Put(ds, doc.Courses)
	if err != nil {
		return http.StatusBadRequest, err.Error(), nil
	}
	return http.StatusOK, "", snap.Repo()
}

// accessors reads every exported accessor of r. The courses are
// encoded once; every other accessor that returns a course or a
// material is recorded by ID and by whether it returns the stored one.
func accessors(r *materials.Repository) map[string]string {
	out := map[string]string{}
	put := func(key string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		out[key] = string(b)
	}
	stored := map[*materials.Material]bool{}
	var ids []string
	for _, c := range r.Courses() {
		ids = append(ids, c.ID)
		put("Course "+c.ID, r.Course(c.ID) == c)
		put("TagRow "+c.ID, r.TagRow(c.ID))
		put("TagSet "+c.ID, c.TagSet())
		for _, m := range c.Materials {
			stored[m] = true
			put("Material "+m.ID, r.Material(m.ID) == m)
		}
	}
	put("Courses", r.Courses())
	put("Material of no ID", r.Material("no-such-material"))
	var all []string
	for _, m := range r.Materials() {
		all = append(all, fmt.Sprintf("%s %v", m.ID, stored[m]))
	}
	put("Materials", all)
	put("NumMaterials", r.NumMaterials())
	put("Group", r.Group(append(ids, "no-such-course")).Rows)
	put("Vocabulary", r.Vocabulary().Len())
	for _, g := range materials.Groups {
		var in []string
		for _, c := range r.Restrict(materials.Scope{Group: g}).Courses() {
			in = append(in, fmt.Sprintf("%s %v", c.ID, r.Course(c.ID) == c))
		}
		put("Restrict "+g, in)
	}
	return out
}

// checkShared fails unless every tag of r's materials the vocabulary
// knows is the vocabulary's own string, every type its constant, and
// equal authors, languages, course levels and dataset names share one
// storage each.
func checkShared(t *testing.T, r *materials.Repository) {
	t.Helper()
	constant := map[materials.MaterialType]materials.MaterialType{}
	for _, mt := range materials.ValidTypes() {
		constant[mt] = mt
	}
	first := map[string]*byte{}
	same := func(what, v string) {
		if v == "" {
			return
		}
		if p, ok := first[v]; !ok {
			first[v] = unsafe.StringData(v)
		} else if p != unsafe.StringData(v) {
			t.Fatalf("%s %q is held twice", what, v)
		}
	}
	v := r.Vocabulary()
	for _, m := range r.Materials() {
		for _, tag := range m.Tags {
			if rank, ok := v.Rank(tag); ok && unsafe.StringData(tag) != unsafe.StringData(v.Tag(rank)) {
				t.Fatalf("material %q holds its own copy of tag %q", m.ID, tag)
			}
		}
		if unsafe.StringData(string(m.Type)) != unsafe.StringData(string(constant[m.Type])) {
			t.Fatalf("material %q holds its own copy of type %q", m.ID, m.Type)
		}
		same("author", m.Author)
		same("language", m.Language)
		same("course level", m.CourseLevel)
		for _, d := range m.Datasets {
			same("dataset name", d)
		}
	}
}
