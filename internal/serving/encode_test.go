package serving

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzEncodeData holds the one-pass indentation to encoding/json. Any
// input json.Valid accepts is compacted, then indented by appendIndent
// and by json.Indent; the bytes must agree. The value the input decodes
// to must encode through EncodeData as json.MarshalIndent encodes it.
func FuzzEncodeData(f *testing.F) {
	for _, seed := range []string{
		`"a\"b"`, `"a\\"`, `"\\\\\""`, `["\\", "\\\"", "x\\\\"]`,
		"\"line\u2028sep\u2029\"", "\"\u2028\"", `"\u2028 \u0000\t"`,
		`{"html": "<a href=\"x\">&amp;</a>"}`,
		`{}`, `[]`, `{"a": {}, "b": [], "c": [{}, [[]], {"d": []}]}`, `[[], {}, [{}]]`,
		strings.Repeat("[", 40) + strings.Repeat("]", 40),
		strings.Repeat(`{"k":`, 35) + "1" + strings.Repeat("}", 35),
		`[1e10, -2.5E-3, 0, -0, 1.0e+2, 123456789012345678901234567890]`,
		`{"{}[],:": "{[,:]}", "s": ":,", "t": "]"}`,
		`{"a": true, "b": false, "c": null, "d": "", "e": 0.5}`,
		` { "spaced" : [ 1 , 2 ] } `,
		`"plain"`, `42`, `null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if !json.Valid(in) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, in); err != nil {
			t.Fatalf("Compact of valid input: %v", err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, compact.Bytes(), "  ", "  "); err != nil {
			t.Fatalf("Indent of valid input: %v", err)
		}
		if got := appendIndent([]byte("kept"), compact.Bytes()); string(got) != "kept"+want.String() {
			t.Fatalf("appendIndent(%q):\n got  %q\n want %q", compact.Bytes(), got[len("kept"):], want.Bytes())
		}

		var v interface{}
		if err := json.Unmarshal(in, &v); err != nil {
			return // valid syntax json.Unmarshal still refuses, such as numbers out of float64 range
		}
		want2, err := json.MarshalIndent(v, "  ", "  ")
		if err != nil {
			t.Fatalf("MarshalIndent: %v", err)
		}
		got2, err := EncodeData(v)
		if err != nil {
			t.Fatalf("EncodeData: %v", err)
		}
		if !bytes.Equal(got2, want2) {
			t.Fatalf("EncodeData(%q):\n got  %q\n want %q", in, got2, want2)
		}
	})
}

// TestAppendDataKeepsPrefixOnError: a value that does not encode
// leaves dst as it was and reports the error.
func TestAppendDataKeepsPrefixOnError(t *testing.T) {
	dst := []byte("prefix")
	got, err := AppendData(dst, map[string]interface{}{"f": func() {}})
	if err == nil || string(got) != "prefix" {
		t.Fatalf("AppendData of an unencodable value = %q, %v; want the prefix and an error", got, err)
	}
}
