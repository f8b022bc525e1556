package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"csmaterials/internal/materials"
)

// DecodeDocument reads one dataset document from r, which is expected
// to hold size bytes (a request's Content-Length; 0 when unknown), as
// a strict encoding/json decode does: unknown fields are an error, and
// whatever follows the document is ignored. The strings of the
// document it returns are shared as Document.Share shares them.
//
// It reads size bytes into one buffer and parses them in one pass,
// building the courses and sharing their strings as it goes. Strings
// are copied out of the buffer, which is dropped on return. Only input
// whose meaning is the same under encoding/json is read this way: the
// fixed keys spelled exactly and each at most once per object, string
// values (escapes and invalid UTF-8 decoded as encoding/json decodes
// them), lists of strings, and null for a member or a course or
// material. Anything else — a key in another case or holding an
// escape, a repeated key, an unknown key, a number or bool, a null in
// a string list, a syntax error, or a document that does not end
// within the buffer — sends the bytes read, followed by the rest of r,
// to encoding/json's streaming Decoder with DisallowUnknownFields,
// whose error, if any, is returned.
func DecodeDocument(r io.Reader, size int) (Document, error) {
	// Not io.ReadFull, which would turn the end of a body shorter than
	// size into io.ErrUnexpectedEOF: the decoder must meet the error
	// the body itself ended with.
	buf := make([]byte, size)
	n := 0
	var err error
	for n < len(buf) && err == nil {
		var m int
		m, err = r.Read(buf[n:])
		n += m
	}
	buf = buf[:n]
	if doc, ok := parseDocument(buf); ok {
		return doc, nil
	}
	rest := r // the buffer is full: the decoder reads on
	if err != nil {
		rest = errReader{err}
	}
	var doc Document
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(buf), rest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return Document{}, err
	}
	doc.Share()
	return doc, nil
}

// errReader replays the error, io.EOF included, that a read of the
// body ended with, so the fallback decoder meets it where the body's
// reader did.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// The keys of each object in a Document, as their json tags spell
// them.
var (
	documentKeys = []string{"courses"}
	courseKeys   = []string{"id", "name", "institution", "instructor", "group", "secondary_group", "materials"}
	materialKeys = []string{"id", "title", "type", "author", "language", "course_level", "datasets", "description", "tags"}
)

// parser reads a Document from buf. Each method reports false where
// the input leaves the fast path; the caller then gives up.
type parser struct {
	buf   []byte
	pos   int
	share *materials.Sharer
	str   []byte                // a string literal holding an escape or invalid UTF-8, decoded
	strs  []string              // the string list being read
	mats  []*materials.Material // the material list being read
}

// parseDocument parses buf from its start to the end of one document,
// reporting false when buf does not hold one the fast path reads.
func parseDocument(buf []byte) (Document, bool) {
	p := parser{buf: buf, share: newSharer()}
	var doc Document
	ok := p.object(documentKeys, func(string) bool {
		var cs []*materials.Course
		ok := p.array(func() bool {
			c, ok := p.course()
			cs = append(cs, c)
			return ok
		})
		doc.Courses = append(make([]*materials.Course, 0, len(cs)), cs...)
		return ok
	})
	return doc, ok
}

// course reads a course object, or null.
func (p *parser) course() (*materials.Course, bool) {
	if p.null() {
		return nil, true
	}
	c := &materials.Course{}
	return c, p.object(courseKeys, func(key string) bool {
		if key == "materials" {
			p.mats = p.mats[:0]
			ok := p.array(func() bool {
				m, ok := p.material()
				p.mats = append(p.mats, m)
				return ok
			})
			c.Materials = append(make([]*materials.Material, 0, len(p.mats)), p.mats...)
			return ok
		}
		s, ok := p.string()
		switch key {
		case "id":
			c.ID = string(s)
		case "name":
			c.Name = string(s)
		case "institution":
			c.Institution = string(s)
		case "instructor":
			c.Instructor = string(s)
		case "group":
			c.Group = materials.CourseGroup(s)
		case "secondary_group":
			c.SecondaryGroup = materials.CourseGroup(s)
		}
		return ok
	})
}

// material reads a material object, or null.
func (p *parser) material() (*materials.Material, bool) {
	if p.null() {
		return nil, true
	}
	m := &materials.Material{}
	return m, p.object(materialKeys, func(key string) bool {
		var ok bool
		switch key {
		case "tags":
			m.Tags, ok = p.strings(p.share.TagOf)
			return ok
		case "datasets":
			m.Datasets, ok = p.strings(p.share.StringOf)
			return ok
		}
		s, ok := p.string()
		switch key {
		case "id":
			m.ID = string(s)
		case "title":
			m.Title = string(s)
		case "type":
			m.Type = p.share.TypeOf(s)
		case "author":
			m.Author = p.share.StringOf(s)
		case "language":
			m.Language = p.share.StringOf(s)
		case "course_level":
			m.CourseLevel = p.share.StringOf(s)
		case "description":
			m.Description = string(s)
		}
		return ok
	})
}

// object reads an object whose keys are among keys, each at most
// once, calling member with the key to read its value. A null value
// leaves the member as it is: the zero value encoding/json's null
// leaves in a new struct.
func (p *parser) object(keys []string, member func(key string) bool) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	var seen uint64
	for {
		k := p.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !p.next(':') {
			return false
		}
		seen |= 1 << k
		if !p.null() && !member(keys[k]) {
			return false
		}
		if p.next('}') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// key reads an object key and returns its index in keys, or -1 when it
// is not spelled exactly as one of them.
func (p *parser) key(keys []string) int {
	p.space()
	if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
		return -1
	}
	end := bytes.IndexByte(p.buf[p.pos+1:], '"')
	if end < 0 {
		return -1
	}
	k := p.buf[p.pos+1 : p.pos+1+end]
	p.pos += end + 2
	for i, name := range keys {
		if string(k) == name {
			return i
		}
	}
	return -1
}

// array reads an array, calling elem to read each element.
func (p *parser) array(elem func() bool) bool {
	if !p.next('[') {
		return false
	}
	if p.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.next(']') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// strings reads an array of strings into a list of its exact length,
// making each element with conv.
func (p *parser) strings(conv func([]byte) string) ([]string, bool) {
	p.strs = p.strs[:0]
	ok := p.array(func() bool {
		s, ok := p.string()
		if ok {
			p.strs = append(p.strs, conv(s))
		}
		return ok
	})
	return append(make([]string, 0, len(p.strs)), p.strs...), ok
}

// string reads a string literal and returns its value as encoding/json
// decodes it, valid until the next read. A literal with no escape and
// valid UTF-8 is returned in place; any other is decoded into p.str.
func (p *parser) string() ([]byte, bool) {
	p.space()
	if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
		return nil, false
	}
	start := p.pos + 1
	if end := bytes.IndexByte(p.buf[start:], '"'); end >= 0 && plain(p.buf[start:start+end]) {
		p.pos = start + end + 1
		return p.buf[start : start+end], true
	}
	p.pos = start
	p.str = p.str[:0]
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		switch {
		case c == '"':
			p.pos++
			return p.str, true
		case c < ' ':
			return nil, false
		case c == '\\':
			if !p.escape() {
				return nil, false
			}
		case c < utf8.RuneSelf:
			p.str = append(p.str, c)
			p.pos++
		default:
			// Each byte of invalid UTF-8 becomes U+FFFD.
			r, size := utf8.DecodeRune(p.buf[p.pos:])
			p.str = utf8.AppendRune(p.str, r)
			p.pos += size
		}
	}
	return nil, false
}

// plain reports whether s, the bytes of a string literal before a
// quote, is the string's value as it stands: no escape, no control
// character, valid UTF-8. It steps a word at a time over ASCII.
func plain(s []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for i := 0; i < len(s); {
		if i+8 <= len(s) {
			// The high bit of a byte of look is set where the byte is
			// below 0x20, is 0x80 or above, or is a backslash ("Bit
			// Twiddling Hacks": determine if a word has a byte less
			// than n, has a zero byte). A byte below 0x20 may set the
			// bit of the byte above it too, but it is itself set.
			w := binary.LittleEndian.Uint64(s[i:])
			b := w ^ '\\'*ones
			if look := (w - ' '*ones) | w | (b-ones)&^b; look&highs == 0 {
				i += 8
				continue
			}
		}
		switch c := s[i]; {
		case c < ' ' || c == '\\':
			return false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			i += size
		}
	}
	return true
}

// escape decodes the escape at p.pos into p.str. A \u escape of a
// UTF-16 surrogate takes the next \u escape with it when the two form
// a pair, and otherwise becomes U+FFFD, leaving the next escape to be
// read on its own.
func (p *parser) escape() bool {
	if p.pos+1 >= len(p.buf) {
		return false
	}
	c := p.buf[p.pos+1]
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		r := p.hex4(p.pos)
		if r < 0 {
			return false
		}
		p.pos += 6
		if utf16.IsSurrogate(r) {
			r = utf16.DecodeRune(r, p.hex4(p.pos))
			if r != unicode.ReplacementChar {
				p.pos += 6
			}
		}
		p.str = utf8.AppendRune(p.str, r)
		return true
	default:
		return false
	}
	p.str = append(p.str, c)
	p.pos += 2
	return true
}

// hex4 returns the code unit of the \uXXXX escape at i, or -1 when
// there is none.
func (p *parser) hex4(i int) rune {
	if i+6 > len(p.buf) || p.buf[i] != '\\' || p.buf[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range p.buf[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// null reads a null literal, if one is next.
func (p *parser) null() bool {
	p.space()
	if bytes.HasPrefix(p.buf[p.pos:], []byte("null")) {
		p.pos += 4
		return true
	}
	return false
}

// next reads byte c, if it is the next one after white space.
func (p *parser) next(c byte) bool {
	p.space()
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// space skips JSON white space.
func (p *parser) space() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}
