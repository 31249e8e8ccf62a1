package canon

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/ccnet/ccnet/internal/cluster"
)

// diffCases are inputs whose canonical forms exercise every scanner
// branch: number respelling, string escapes, surrogate repair, key
// sorting, duplicate keys, nesting, and whitespace.
var diffCases = []any{
	nil, true, false,
	0.0, -0.0, 1.0, 3.14, 1e-7, 1e21, 1e300, -2.5e-9, 12345678901234567890.0,
	"", "plain", "with \"quotes\" and \\slashes\\", "<html> & friends",
	"tab\tnewline\ncr\r", "\u0001控制\u001f", "line\u2028para\u2029",
	"ragged🙂emoji", string([]byte{0xff, 0xfe, 'a'}),
	[]any{}, map[string]any{},
	[]any{1.0, "two", nil, true, []any{3.0}},
	map[string]any{"z": 1.0, "a": 2.0, "m": map[string]any{"q": []any{}, "b": "x"}},
	cluster.System1120(),
	json.RawMessage(`  {"dup":1,"dup":2,"a":[1,2.50,3e2] , "s":"\u0041\ud83d\ude00\ud800"} `),
	json.RawMessage(`{"outer":{"y":1,"x":{"dup":"first","dup":"second"}}}`),
	json.RawMessage(`"\u2028"`),
	json.RawMessage(`[1e-6, 0.0000001, 100000000000000000000, 1e21]`),
	uint64(1)<<53 + 1, int64(-1) << 62, json.RawMessage(`[9007199254740993, -0, 12345678901234567890123]`),
}

// TestScannerMatchesReference proves the single-pass canonicalizer is
// byte-identical to the generic-tree reference on every case.
func TestScannerMatchesReference(t *testing.T) {
	for i, v := range diffCases {
		want, wantErr := canonicalizeReference(v)
		got, gotErr := Canonicalize(v)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("case %d: error mismatch: reference %v, scanner %v", i, wantErr, gotErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\nscanner   %s\nreference %s", i, got, want)
		}
	}
}

// TestScannerRejectsWhatReferenceRejects covers the error paths the
// reference rejects: non-finite numbers (via RawMessage, since float64
// inputs fail at json.Marshal in both paths) and malformed raw JSON.
func TestScannerRejectsWhatReferenceRejects(t *testing.T) {
	for _, raw := range []string{
		`1e999`, `-1e999`, // overflow to ±Inf
		`{"a":`, `[1,`, `"unterminated`, `tru`, `{"a" 1}`, `nul`, `1 2`,
	} {
		v := json.RawMessage(raw)
		if _, err := canonicalizeReference(v); err == nil {
			t.Fatalf("reference accepted %q — case list is stale", raw)
		}
		if _, err := Canonicalize(v); err == nil {
			t.Errorf("scanner accepted %q that the reference rejects", raw)
		}
	}
}

// FuzzScannerMatchesReference is the differential fuzz target: for any
// JSON document both pipelines must agree on acceptance and produce
// identical canonical bytes.
func FuzzScannerMatchesReference(f *testing.F) {
	for _, seed := range []string{
		`{"b":1,"a":2}`, `[0.1, -7e-8]`, `"\ud834\udd1e"`, `{"dup":1,"dup":2}`,
		` { "k" : [ true , null ] } `, `-0`, `1e999`, `"<&>"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return // both paths reject at json.Marshal/Unmarshal; nothing to compare
		}
		v := json.RawMessage(data)
		want, wantErr := canonicalizeReference(v)
		got, gotErr := Canonicalize(v)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch on %q: reference %v, scanner %v", data, wantErr, gotErr)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("divergence on %q:\nscanner   %s\nreference %s", data, got, want)
		}
	})
}
