package serving

import (
	"encoding/json"
	"sync"
)

// Answer is one computed result as the executor caches it: the value,
// and the JSON encoding of that value as the data member of a response
// envelope. The encoding is made on the first Data call, not at store
// time, so an answer no response ever writes never pays for it. The
// fresh store, the stale store, a shared flight's joiners and a Rekey
// migration all hand on the same *Answer, so its bytes are encoded once
// and kept for as long as any of them holds it.
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
func EncodeData(v interface{}) ([]byte, error) {
	return json.MarshalIndent(v, "  ", "  ")
}
