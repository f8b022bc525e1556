package serving

import (
	"bytes"
	"encoding/json"
	"slices"
	"sync"
)

// Answer is one computed result as the executor caches it: the value,
// and the JSON encoding of that value as the data member of a response
// envelope. The encoding is made on the first Data call, not at store
// time, so an answer no response ever writes never pays for it. The
// cache and a shared flight's joiners all hand on the same *Answer, so
// its bytes are encoded once and kept for as long as any of them holds
// it.
type Answer struct {
	// Value is the computed result; it must not change once stored.
	Value interface{}

	once sync.Once
	data []byte
	err  error
}

// NewAnswer wraps a computed value.
func NewAnswer(v interface{}) *Answer { return &Answer{Value: v} }

// Data returns EncodeData(a.Value), encoding it on the first call only;
// concurrent first callers wait for the one encoding.
func (a *Answer) Data() ([]byte, error) {
	a.once.Do(func() {
		b, err := EncodeData(a.Value)
		// The encoder's buffer has room to spare; the cache keeps the
		// bytes for the answer's lifetime, so keep an exact-size copy.
		a.data, a.err = append(make([]byte, 0, len(b)), b...), err
	})
	return a.data, a.err
}

// EncodeData encodes v exactly as WriteJSON encodes a member of a
// top-level object: indented one level deep with WriteJSON's two-space
// indent, HTML-escaped, without a trailing newline. So
//
//	{\n  "data": EncodeData(d),\n  "meta": EncodeData(m)\n}\n
//
// is byte for byte what WriteJSON writes for {"data": d, "meta": m}.
// It is json.MarshalIndent(v, "  ", "  "), with the indentation done in
// one pass over Marshal's output.
func EncodeData(v interface{}) ([]byte, error) {
	return AppendData(nil, v)
}

// AppendData appends EncodeData(v) to dst. On error it returns dst as
// it was.
func AppendData(dst []byte, v interface{}) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	// Reserve twice the compact size up front, as MarshalIndent does.
	return appendIndent(slices.Grow(dst, 2*len(b)), b), nil
}

// spaces is a run of indentation, sliced to the depth needed.
const spaces = "                                                                "

// appendIndent appends src, compact JSON as json.Marshal writes it, to
// dst indented as json.Indent(dst, src, "  ", "  ") indents it: each
// member and element on a line of its own, two spaces deeper per level
// after a two-space prefix, a space after each colon, and an empty
// object or array kept as {} or []. Strings are copied verbatim,
// escapes included. Marshal's output is valid and holds no whitespace,
// so unlike Indent the loop needs no scanner.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	opened := false // the last byte written opened an object or array
	for i := 0; i < len(src); i++ {
		c := src[i]
		if opened && c != '}' && c != ']' {
			opened = false
			depth++
			dst = newline(dst, depth)
		}
		switch c {
		case '"':
			// The string ends at the first quote that an even run of
			// backslashes precedes.
			j := i + 1
			for {
				j += bytes.IndexByte(src[j:], '"')
				k := j
				for src[k-1] == '\\' {
					k--
				}
				if (j-k)%2 == 0 {
					break
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			opened = true
			dst = append(dst, c)
		case ',':
			dst = newline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '}', ']':
			if opened {
				opened = false
			} else {
				depth--
				dst = newline(dst, depth)
			}
			dst = append(dst, c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// newline starts a line at depth: the two-space prefix, then two
// spaces per level.
func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for n := 2 * (depth + 1); n > 0; n -= len(spaces) {
		dst = append(dst, spaces[:min(n, len(spaces))]...)
	}
	return dst
}
