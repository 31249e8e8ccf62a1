package canon

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// scanner is the single-pass canonicalizer's working state: one member
// stack shared by every object in the document plus one reusable
// scratch buffer per nesting depth (sibling objects at the same depth
// reuse the same buffer), so canonicalizing allocates O(depth) buffers
// instead of O(objects). Spans into a scratch buffer are offsets, not
// slices, so buffer growth cannot invalidate them.
type scanner struct {
	bufs    [][]byte // per-depth member-value scratch buffers
	depth   int      // current object nesting depth
	members []member // member stack; each object owns a suffix
}

// member is one parsed object member: the decoded key (aliasing the
// source for escape-free keys) and the span of its canonicalized value
// in the object's depth scratch buffer.
type member struct {
	key      []byte
	idx      int // declaration order within its object, for duplicates
	from, to int // value span in the depth scratch
}

// appendCanonical canonicalizes the first JSON value in src onto dst and
// returns the remaining input. It mirrors the reference pipeline
// (decode into any with UseNumber, re-render with sorted keys) token by
// token: integer tokens are copied as written, other numbers round
// through float64 into encoding/json's float spelling, strings decode
// (with invalid-escape replacement) and re-encode with encoding/json's
// HTML-escaping rules, object keys sort byte-wise with the last
// duplicate winning.
func appendCanonical(dst, src []byte) ([]byte, []byte, error) {
	var sc scanner
	return sc.value(dst, src)
}

// value canonicalizes one JSON value onto dst. dst is never an
// enclosing object's own scratch at the same depth: object() hands
// member values a deeper buffer, so emission cannot alias its source.
func (sc *scanner) value(dst, src []byte) ([]byte, []byte, error) {
	src = skipSpace(src)
	if len(src) == 0 {
		return dst, src, fmt.Errorf("unexpected end of JSON input")
	}
	switch c := src[0]; {
	case c == 'n':
		return appendLiteral(dst, src, "null")
	case c == 't':
		return appendLiteral(dst, src, "true")
	case c == 'f':
		return appendLiteral(dst, src, "false")
	case c == '"':
		s, rest, err := decodeString(src)
		if err != nil {
			return dst, src, err
		}
		return appendString(dst, s), rest, nil
	case c == '-' || (c >= '0' && c <= '9'):
		return appendNumber(dst, src)
	case c == '[':
		return sc.array(dst, src)
	case c == '{':
		return sc.object(dst, src)
	default:
		return dst, src, fmt.Errorf("unexpected character %q", c)
	}
}

func skipSpace(src []byte) []byte {
	for len(src) > 0 {
		switch src[0] {
		case ' ', '\t', '\n', '\r':
			src = src[1:]
		default:
			return src
		}
	}
	return src
}

func appendLiteral(dst, src []byte, lit string) ([]byte, []byte, error) {
	if len(src) < len(lit) || string(src[:len(lit)]) != lit {
		return dst, src, fmt.Errorf("invalid literal %q", src)
	}
	return append(dst, lit...), src[len(lit):], nil
}

// appendNumber copies an integer token (digits after an optional minus
// sign) exactly as written — rounding it through float64 would merge
// distinct integers beyond 2^53, such as neighboring uint64 seeds — and
// re-emits any other number token exactly as encoding/json renders a
// float64. The input is valid JSON (it comes from json.Marshal), so an
// integer token has no leading zeros to normalize.
func appendNumber(dst, src []byte) ([]byte, []byte, error) {
	i := 1 // sign or first digit already vetted
	intOnly := true
	for i < len(src) {
		switch c := src[i]; {
		case c >= '0' && c <= '9':
			i++
		case c == '.', c == 'e', c == 'E', c == '+', c == '-':
			intOnly = false
			i++
		default:
			goto done
		}
	}
done:
	if intOnly {
		return append(dst, src[:i]...), src[i:], nil
	}
	f, err := strconv.ParseFloat(string(src[:i]), 64)
	if err != nil {
		return dst, src, fmt.Errorf("invalid number %q: %w", src[:i], err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, src, fmt.Errorf("non-finite number %v", f)
	}
	return appendFloat(dst, f), src[i:], nil
}

// appendFloat is encoding/json's float64 encoder: shortest spelling,
// 'f' form except for very small/large magnitudes, exponent written
// without a leading zero.
func appendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func (sc *scanner) array(dst, src []byte) ([]byte, []byte, error) {
	src = src[1:] // consume '['
	dst = append(dst, '[')
	first := true
	for {
		src = skipSpace(src)
		if len(src) == 0 {
			return dst, src, fmt.Errorf("unterminated array")
		}
		if src[0] == ']' {
			return append(dst, ']'), src[1:], nil
		}
		if !first {
			if src[0] != ',' {
				return dst, src, fmt.Errorf("expected ',' in array, got %q", src[0])
			}
			src = skipSpace(src[1:])
			dst = append(dst, ',')
		}
		first = false
		var err error
		dst, src, err = sc.value(dst, src)
		if err != nil {
			return dst, src, err
		}
	}
}

func (sc *scanner) object(dst, src []byte) ([]byte, []byte, error) {
	src = src[1:]           // consume '{'
	base := len(sc.members) // this object's members live above base
	if sc.depth >= len(sc.bufs) {
		sc.bufs = append(sc.bufs, nil)
	}
	scratch := sc.bufs[sc.depth][:0] // reused by every sibling at this depth
	sc.depth++
	defer func() { sc.depth-- }()
	first := true
	for {
		src = skipSpace(src)
		if len(src) == 0 {
			return dst, src, fmt.Errorf("unterminated object")
		}
		if src[0] == '}' {
			src = src[1:]
			break
		}
		if !first {
			if src[0] != ',' {
				return dst, src, fmt.Errorf("expected ',' in object, got %q", src[0])
			}
			src = skipSpace(src[1:])
		}
		first = false
		if len(src) == 0 || src[0] != '"' {
			return dst, src, fmt.Errorf("expected object key")
		}
		key, rest, err := decodeString(src)
		if err != nil {
			return dst, src, err
		}
		rest = skipSpace(rest)
		if len(rest) == 0 || rest[0] != ':' {
			return dst, src, fmt.Errorf("expected ':' after object key %q", key)
		}
		from := len(scratch)
		// Nested objects inside this value use the next depth's buffer,
		// so they can never emit into the scratch they are reading.
		scratch, rest, err = sc.value(scratch, rest[1:])
		if err != nil {
			return dst, src, err
		}
		sc.members = append(sc.members, member{
			key: key, idx: len(sc.members) - base, from: from, to: len(scratch),
		})
		src = rest
	}
	sc.bufs[sc.depth-1] = scratch // keep the grown capacity for siblings

	// Reference semantics: byte-wise key order, last duplicate wins.
	// Typical objects are small (struct sections, network classes), so an
	// in-place insertion sort avoids sort.Slice's per-call allocations.
	members := sc.members[base:]
	if len(members) <= 16 {
		for i := 1; i < len(members); i++ {
			for j := i; j > 0 && bytes.Compare(members[j].key, members[j-1].key) < 0; j-- {
				members[j], members[j-1] = members[j-1], members[j]
			}
		}
	} else {
		sort.Slice(members, func(i, j int) bool {
			if c := bytes.Compare(members[i].key, members[j].key); c != 0 {
				return c < 0
			}
			return members[i].idx < members[j].idx
		})
	}
	dst = append(dst, '{')
	emitted := 0
	for i, m := range members {
		if i+1 < len(members) && bytes.Equal(members[i+1].key, m.key) {
			continue // a later duplicate overrides this member
		}
		if emitted > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, m.key)
		dst = append(dst, ':')
		dst = append(dst, scratch[m.from:m.to]...)
		emitted++
	}
	sc.members = sc.members[:base] // pop this object's members
	return append(dst, '}'), src, nil
}

// decodeString decodes the JSON string token at the head of src,
// applying encoding/json's lenient escape handling (invalid escapes and
// bare surrogates become U+FFFD). The decoded bytes alias src on the
// escape-free fast path — callers must not retain them past src.
func decodeString(src []byte) ([]byte, []byte, error) {
	// Fast path: no escapes, no control characters, valid UTF-8 — the
	// decoded string is the raw interior. (Invalid UTF-8 must go through
	// the slow path: the reference decoder replaces it with U+FFFD.)
	for i := 1; i < len(src); i++ {
		switch c := src[i]; {
		case c == '"':
			if !utf8.Valid(src[1:i]) {
				goto slow
			}
			return src[1:i], src[i+1:], nil
		case c == '\\' || c < 0x20:
			goto slow
		}
	}
	return nil, src, fmt.Errorf("unterminated string")

slow:
	buf := make([]byte, 0, len(src))
	i := 1
	for i < len(src) {
		switch c := src[i]; {
		case c == '"':
			return buf, src[i+1:], nil
		case c == '\\':
			if i+1 >= len(src) {
				return nil, src, fmt.Errorf("unterminated escape")
			}
			switch e := src[i+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
				i += 2
			case 'b':
				buf = append(buf, '\b')
				i += 2
			case 'f':
				buf = append(buf, '\f')
				i += 2
			case 'n':
				buf = append(buf, '\n')
				i += 2
			case 'r':
				buf = append(buf, '\r')
				i += 2
			case 't':
				buf = append(buf, '\t')
				i += 2
			case 'u':
				r, n := decodeHexRune(src[i:])
				if n == 0 {
					return nil, src, fmt.Errorf("invalid \\u escape")
				}
				buf = utf8.AppendRune(buf, r)
				i += n
			default:
				return nil, src, fmt.Errorf("invalid escape \\%c", e)
			}
		case c < 0x20:
			return nil, src, fmt.Errorf("control character %#x in string", c)
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			r, size := utf8.DecodeRune(src[i:])
			if r == utf8.RuneError && size == 1 {
				// Invalid UTF-8 byte: encoding/json substitutes U+FFFD.
				buf = utf8.AppendRune(buf, utf8.RuneError)
				i++
			} else {
				buf = append(buf, src[i:i+size]...)
				i += size
			}
		}
	}
	return nil, src, fmt.Errorf("unterminated string")
}

// decodeHexRune decodes \uXXXX (with surrogate-pair handling) at the
// head of src; it returns the rune and how many bytes were consumed, or
// 0 when the escape is malformed. Unpaired surrogates decode to U+FFFD,
// as encoding/json does.
func decodeHexRune(src []byte) (rune, int) {
	hex4 := func(b []byte) (rune, bool) {
		var r rune
		for _, c := range b {
			switch {
			case c >= '0' && c <= '9':
				r = r<<4 | rune(c-'0')
			case c >= 'a' && c <= 'f':
				r = r<<4 | rune(c-'a'+10)
			case c >= 'A' && c <= 'F':
				r = r<<4 | rune(c-'A'+10)
			default:
				return 0, false
			}
		}
		return r, true
	}
	if len(src) < 6 {
		return 0, 0
	}
	r, ok := hex4(src[2:6])
	if !ok {
		return 0, 0
	}
	if utf16.IsSurrogate(r) {
		if len(src) >= 12 && src[6] == '\\' && src[7] == 'u' {
			if r2, ok := hex4(src[8:12]); ok {
				if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
					return dec, 12
				}
			}
		}
		return utf8.RuneError, 6
	}
	return r, 6
}

// appendString is encoding/json's string encoder with HTML escaping:
// the escapes Canonicalize's reference pipeline produces, byte for byte.
func appendString(dst []byte, s []byte) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := len(s) - i
		if n > utf8.UTFMax {
			n = utf8.UTFMax
		}
		c, size := utf8.DecodeRune(s[i : i+n])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `�`...)
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
