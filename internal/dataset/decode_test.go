package dataset

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

// referenceDecode is the decode DecodeDocument must match: encoding/json
// with unknown fields disallowed, then Document.Share.
func referenceDecode(body []byte) (Document, error) {
	var doc Document
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return Document{}, err
	}
	doc.Share()
	return doc, nil
}

// spaced puts JSON white space around every structural byte of the
// JSON text b, leaving its strings as they are.
func spaced(b []byte) []byte {
	var out []byte
	in, esc := false, false
	for _, c := range b {
		switch {
		case in:
			in = esc || c != '"'
			esc = !esc && c == '\\'
		case c == '"':
			in = true
		case strings.IndexByte("{}[]:,", c) >= 0:
			out = append(append(append(out, " \n"...), c), "\t\r "...)
			continue
		}
		out = append(out, c)
	}
	return out
}

// FuzzDecodeDocument decodes its input with DecodeDocument three
// times: with a buffer of the input's length, of half of it (so the
// fallback decoder reads on from the body), and of one byte more (so
// the body ends before the buffer is full). Each must answer as
// referenceDecode does: its error text, or a Document
// reflect.DeepEqual to its own whose known tags and valid types share
// the vocabulary's and the constants' storage. The one-pass parser
// must keep no string that points into the body, and must read the
// json.Marshal of every document the reference accepts without falling
// back, into the document the reference decodes from it.
func FuzzDecodeDocument(f *testing.F) {
	var seed bytes.Buffer
	if err := Repository().SaveJSON(&seed); err != nil {
		f.Fatal(err)
	}
	small := func(edit func(a, b *materials.Course)) string {
		var cs []*materials.Course
		for _, c := range Courses()[:2] {
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
		b, err := json.Marshal(Document{Courses: cs})
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	plain := small(nil)
	first := Courses()[0].Materials[0]
	tag, title := first.Tags[0], `"title":"`+first.Title+`"`
	for _, body := range []string{
		// FuzzPutDocument's seeds.
		seed.String(),
		plain,
		strings.Replace(plain, `"`+tag+`"`, `"`+strings.Replace(tag, "/", `\u002f`, 1)+`"`, 1),
		strings.Replace(plain, `"title"`, `"titel"`, 1),
		strings.Replace(plain, `{"courses"`, `{"extra":1,"courses"`, 1),
		small(func(a, _ *materials.Course) { a.Materials[0].Tags = append(a.Materials[0].Tags, "NOPE/not-a-tag") }),
		small(func(a, b *materials.Course) { b.Materials[2].ID = a.Materials[0].ID }),
		small(func(a, _ *materials.Course) { a.Materials[1].Tags[0] = strings.ToUpper(a.Materials[1].Tags[0]) }),
		small(func(a, b *materials.Course) { a.Materials[0].Tags, b.Materials[0].Tags = nil, []string{} }),
		small(func(a, _ *materials.Course) { a.Materials[2].Type = "Lecture" }),
		`{"courses":[null]}`,
		`{"courses":[{"id":"x","name":"X","group":"CS1","materials":[null]}]}`,
		`{"courses":[]}`,
		`null`,
		`not json`,
		``,
		// A key in another case, a repeated key (a repeated list merges
		// into the first one's elements), null for a string, a string
		// list and a list element, and a number for a string.
		strings.Replace(plain, `"id"`, `"ID"`, 1),
		strings.Replace(plain, `"title":`, `"title":"twice","title":`, 1),
		strings.Replace(plain, `"materials":[`, `"materials":[{"description":"kept"}],"materials":[`, 1),
		strings.Replace(plain, `"title":`, `"description":null,"title":`, 1),
		strings.Replace(plain, `"title":`, `"tags":null,"title":`, 1),
		strings.Replace(plain, `"tags":[`, `"tags":[null,`, 1),
		strings.Replace(plain, `"type":"`+string(first.Type)+`"`, `"type":1`, 1),
		// Escapes json.Marshal writes and ones it never does (a
		// surrogate pair, a lone high surrogate before another escape,
		// a lone low one), and an invalid UTF-8 byte.
		strings.Replace(plain, title, `"title":"A & B \"q\" \ud83d\ude00 \ud800\u2028 \udc00 \u0026"`, 1),
		strings.Replace(plain, title, "\"title\":\"bad \xff byte\"", 1),
		// Bytes after the document, and white space around every token.
		plain + `{"courses":"trailing"`,
		string(spaced([]byte(plain))),
	} {
		f.Add([]byte(body))
	}
	vocab := materials.VocabularyOf(ontology.CS2013(), ontology.PDC12())
	f.Fuzz(func(t *testing.T, body []byte) {
		ref, refErr := referenceDecode(body)
		for _, size := range []int{len(body), len(body) / 2, len(body) + 1} {
			got, err := DecodeDocument(bytes.NewReader(body), size)
			if refErr != nil {
				if err == nil || err.Error() != refErr.Error() {
					t.Fatalf("size %d: error %v, the reference's %v", size, err, refErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("size %d: error %v; the reference decodes the body", size, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("size %d: decoded\n%+v\nthe reference\n%+v", size, got, ref)
			}
			checkDocumentShared(t, vocab, got)
		}
		if doc, ok := parseDocument(body); ok {
			checkCopied(t, body, doc)
		}
		if refErr != nil {
			return
		}
		out, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		doc, ok := parseDocument(out)
		if !ok {
			t.Fatalf("the parser falls back on json.Marshal's\n%s", out)
		}
		if again, _ := referenceDecode(out); !reflect.DeepEqual(doc, again) {
			t.Fatalf("the parser reads json.Marshal's\n%s\nas\n%+v\nthe reference as\n%+v", out, doc, again)
		}
	})
}

// TestDocumentKeysMatchTags: the parser knows each object's keys as the
// json tags of Document, Course and Material spell them, so a field
// added to one of them is added to its key list too.
func TestDocumentKeysMatchTags(t *testing.T) {
	for _, tc := range []struct {
		v    any
		keys []string
	}{
		{Document{}, documentKeys},
		{materials.Course{}, courseKeys},
		{materials.Material{}, materialKeys},
	} {
		typ := reflect.TypeOf(tc.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		if !reflect.DeepEqual(tags, tc.keys) {
			t.Errorf("%s: json tags %q, parser keys %q", typ, tags, tc.keys)
		}
	}
}

// checkDocumentShared fails unless every tag of doc the vocabulary
// knows is the vocabulary's own string, every valid type its
// constant, and equal authors, languages, course levels and dataset
// names share one storage each.
func checkDocumentShared(t *testing.T, v *materials.Vocabulary, doc Document) {
	t.Helper()
	first := map[string]*byte{}
	same := func(what, s string) {
		if s == "" {
			return
		}
		if p, ok := first[s]; !ok {
			first[s] = unsafe.StringData(s)
		} else if p != unsafe.StringData(s) {
			t.Fatalf("%s %q is held twice", what, s)
		}
	}
	for _, c := range doc.Courses {
		if c == nil {
			continue
		}
		for _, m := range c.Materials {
			if m == nil {
				continue
			}
			for _, tag := range m.Tags {
				if rank, ok := v.Rank(tag); ok && unsafe.StringData(tag) != unsafe.StringData(v.Tag(rank)) {
					t.Fatalf("material %q holds its own copy of tag %q", m.ID, tag)
				}
			}
			for _, mt := range materials.ValidTypes() {
				if m.Type == mt && unsafe.StringData(string(m.Type)) != unsafe.StringData(string(mt)) {
					t.Fatalf("material %q holds its own copy of type %q", m.ID, m.Type)
				}
			}
			same("author", m.Author)
			same("language", m.Language)
			same("course level", m.CourseLevel)
			for _, d := range m.Datasets {
				same("dataset name", d)
			}
		}
	}
}

// checkCopied fails if a string of doc points into body.
func checkCopied(t *testing.T, body []byte, doc Document) {
	t.Helper()
	if len(body) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(&body[0]))
	hi := lo + uintptr(len(body))
	check := func(s string) {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && lo <= p && p < hi {
			t.Fatalf("%q is a view of the body", s)
		}
	}
	for _, c := range doc.Courses {
		if c == nil {
			continue
		}
		for _, s := range []string{c.ID, c.Name, c.Institution, c.Instructor, string(c.Group), string(c.SecondaryGroup)} {
			check(s)
		}
		for _, m := range c.Materials {
			if m == nil {
				continue
			}
			for _, s := range []string{m.ID, m.Title, string(m.Type), m.Author, m.Language, m.CourseLevel, m.Description} {
				check(s)
			}
			for _, list := range [][]string{m.Datasets, m.Tags} {
				for _, s := range list {
					check(s)
				}
			}
		}
	}
}
