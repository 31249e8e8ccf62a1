package canon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// canonicalizeReference is the original generic-tree implementation,
// retained as the specification the scanner path is differentially
// tested against. It decodes numbers as json.Number so integer tokens
// reach writeCanonical as written.
func canonicalizeReference(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := writeCanonical(&b, generic); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// writeCanonical renders the generic JSON value with sorted object keys.
// encoding/json already sorts map[string]any keys, but rendering
// explicitly keeps the canonical form independent of that implementation
// detail (and of future encoder changes).
func writeCanonical(b *strings.Builder, v any) error {
	switch x := v.(type) {
	case nil:
		b.WriteString("null")
	case bool:
		if x {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case json.Number:
		if !strings.ContainsAny(string(x), ".eE") {
			b.WriteString(string(x)) // integer token: kept as written
			return nil
		}
		f, err := x.Float64()
		if err != nil {
			return err
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("non-finite number %v", f)
		}
		enc, err := json.Marshal(f)
		if err != nil {
			return err
		}
		b.Write(enc)
	case string:
		enc, err := json.Marshal(x)
		if err != nil {
			return err
		}
		b.Write(enc)
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := writeCanonical(b, e); err != nil {
				return err
			}
		}
		b.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			enc, err := json.Marshal(k)
			if err != nil {
				return err
			}
			b.Write(enc)
			b.WriteByte(':')
			if err := writeCanonical(b, x[k]); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	default:
		return fmt.Errorf("unexpected JSON value of type %T", v)
	}
	return nil
}
