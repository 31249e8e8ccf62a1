package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fleetSpec is a small scripted fleet simulation over the 4-cluster
// miniature that finishes in milliseconds.
const fleetSpec = `{
	"kind": "fleetsim",
	"name": "svc-fleet",
	"system": {"preset": "small"},
	"traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 0.01, "points": 4}},
	"performability": {
		"nodes": [{"group": 1, "mttf": 1500, "mttr": 50, "repairers": 2}]
	},
	"fleetsim": {
		"horizon": 1000,
		"epoch": 100,
		"stochastic": false,
		"timeline": [
			{"at": 100, "action": "inject_failure", "class": "nodes[g1]", "count": 8},
			{"at": 500, "action": "repair", "class": "nodes[g1]", "count": 8}
		],
		"assertions": [{"check": "recovers_within", "value": 600}]
	}
}`

// postFleet sends the spec and returns the NDJSON lines.
func postFleet(t *testing.T, h http.Handler, body string) (int, []string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleetsim", strings.NewReader(body)))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	return rec.Code, lines
}

func TestFleetSimEndpoint(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()

	code, lines := postFleet(t, h, fleetSpec)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, strings.Join(lines, "\n"))
	}
	// Ten epoch lines stream ahead of the terminal result line.
	if len(lines) != 11 {
		t.Fatalf("%d lines, want 10 epochs + result", len(lines))
	}
	for i, line := range lines[:10] {
		var ep FleetEpochLine
		if err := json.Unmarshal([]byte(line), &ep); err != nil {
			t.Fatalf("epoch line %d %q: %v", i, line, err)
		}
		if ep.Kind != FrameProgress || ep.Index != i {
			t.Fatalf("epoch line %d: %+v", i, ep)
		}
	}
	var result ResultLine
	if err := json.Unmarshal([]byte(lines[10]), &result); err != nil {
		t.Fatal(err)
	}
	if result.Kind != FrameResult || result.Cached || result.Key == "" {
		t.Fatalf("terminal line %+v", result)
	}
	var rep struct {
		Epochs           []json.RawMessage `json:"epochs"`
		FailedAssertions int               `json:"failedAssertions"`
		UniqueStates     int               `json:"uniqueStates"`
	}
	if err := json.Unmarshal(result.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 10 || rep.FailedAssertions != 0 || rep.UniqueStates == 0 {
		t.Fatalf("report %+v", rep)
	}

	// A repeated identical spec answers from the cache: one result line,
	// cached=true, same key, byte-identical report.
	code2, lines2 := postFleet(t, h, fleetSpec)
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

// TestFleetSimEndpointErrors: a spec without the section, a timeline
// against an unknown class, and malformed JSON are plain 400s.
func TestFleetSimEndpointErrors(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	noBlock := `{
		"name": "svc-fleet-none",
		"system": {"preset": "small"},
		"traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 0.01, "points": 4}}
	}`
	badClass := strings.Replace(fleetSpec, `"class": "nodes[g1]"`, `"class": "nodes[g9]"`, 2)
	for name, body := range map[string]string{
		"noBlock":   noBlock,
		"badClass":  badClass,
		"malformed": `{"name": `,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleetsim", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}
}

// TestBatchFleetSimItem runs the simulation as a /v1/batch item:
// the item answers with the same cached payload the endpoint computes.
func TestBatchFleetSimItem(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()

	body := `{"items": [
		{"id": "fleet", "kind": "fleetsim", "spec": ` + fleetSpec + `},
		{"id": "again", "kind": "fleetsim", "spec": ` + fleetSpec + `}
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
