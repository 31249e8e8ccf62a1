package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// perfabSpec is a small exact-space performability study over the
// 4-cluster miniature that finishes in milliseconds.
const perfabSpec = `{
	"name": "svc-perf",
	"system": {"preset": "small"},
	"traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 0.01, "points": 4}},
	"performability": {
		"nodes": [
			{"group": 0, "mttf": 2000, "mttr": 50},
			{"group": 1, "mttf": 1500, "mttr": 50, "repairers": 2}
		],
		"icn2Switches": [{"level": 0, "mttf": 50000, "mttr": 100}],
		"probe": {"fraction": 0.5},
		"states": {"maxExact": 1000}
	}
}`

// postPerfab sends the spec and returns the NDJSON lines.
func postPerfab(t *testing.T, h http.Handler, body string) (int, []string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/performability", strings.NewReader(body)))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	return rec.Code, lines
}

func TestPerformabilityEndpoint(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()

	code, lines := postPerfab(t, h, perfabSpec)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, strings.Join(lines, "\n"))
	}
	last := lines[len(lines)-1]
	var result ResultLine
	if err := json.Unmarshal([]byte(last), &result); err != nil {
		t.Fatalf("terminal line %q: %v", last, err)
	}
	if result.Kind != FrameResult || result.Cached || result.Key == "" {
		t.Fatalf("terminal line %+v", result)
	}
	var rep struct {
		Method       string  `json:"method"`
		Availability float64 `json:"availability"`
		States       int     `json:"statesEvaluated"`
	}
	if err := json.Unmarshal(result.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Method != "exact" || rep.States == 0 || rep.Availability <= 0 || rep.Availability > 1 {
		t.Fatalf("report %+v", rep)
	}

	// A repeated identical spec answers from the cache: one result line,
	// cached=true, same key, byte-identical report.
	code2, lines2 := postPerfab(t, h, perfabSpec)
	if code2 != http.StatusOK {
		t.Fatalf("cached status %d", code2)
	}
	if len(lines2) != 1 {
		t.Fatalf("cached answer streamed %d lines, want 1", len(lines2))
	}
	var cached ResultLine
	if err := json.Unmarshal([]byte(lines2[0]), &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached || cached.Key != result.Key {
		t.Fatalf("cached line %+v, want cached=true key=%s", cached, result.Key)
	}
	if string(cached.Result) != string(result.Result) {
		t.Fatal("cached report differs from the computed one")
	}
	if got := srv.Computes(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
}

// TestPerformabilityEndpointErrors: a spec without the block, an invalid
// block, and malformed JSON are plain 400s.
func TestPerformabilityEndpointErrors(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	noBlock := `{
		"name": "svc-perf-none",
		"system": {"preset": "small"},
		"traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 0.01, "points": 4}}
	}`
	badGroup := strings.Replace(perfabSpec, `"group": 1,`, `"group": 9,`, 1)
	for name, body := range map[string]string{
		"noBlock":   noBlock,
		"badGroup":  badGroup,
		"malformed": `{"name": `,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/performability", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}
}

// TestBatchPerformabilityItem runs the block as a /v1/batch item:
// the item answers with the same cached payload the endpoint computes.
func TestBatchPerformabilityItem(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()

	body := `{"items": [
		{"id": "perf", "kind": "performability", "spec": ` + perfabSpec + `},
		{"id": "again", "kind": "performability", "spec": ` + perfabSpec + `}
	]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 2 results + summary", len(lines))
	}
	var first, second BatchItemLine
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first.Error != nil || second.Error != nil {
		t.Fatalf("item errors: %+v / %+v", first.Error, second.Error)
	}
	if first.Key == "" || first.Key != second.Key {
		t.Fatalf("keys %q / %q, want equal and non-empty", first.Key, second.Key)
	}
	if string(first.Result) != string(second.Result) {
		t.Fatal("identical specs answered differently within one batch")
	}
	if got := srv.Computes(); got != 1 {
		t.Fatalf("computed %d times, want 1 (dedup within the batch)", got)
	}
}
