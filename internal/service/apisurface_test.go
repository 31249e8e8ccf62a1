package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/scenario"
	"github.com/ccnet/ccnet/internal/version"
)

// TestVersionEndpoint pins the /v1/version document: build version, API
// version, canonicalization scheme, scenario schema and shard identity.
func TestVersionEndpoint(t *testing.T) {
	srv := New(Options{ShardID: "shard-7"})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/version", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var v VersionResult
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Version != version.Version || v.APIVersion != APIVersion {
		t.Errorf("version %+v", v)
	}
	if v.CacheScheme != canon.Scheme || v.ModelSchema != scenario.SchemaVersion {
		t.Errorf("schema versions %+v", v)
	}
	if v.GoVersion == "" {
		t.Error("goVersion missing")
	}
	if v.ShardID != "shard-7" {
		t.Errorf("shardID %q, want shard-7", v.ShardID)
	}
	if got := rec.Header().Get(ShardHeader); got != "shard-7" {
		t.Errorf("X-Shard header %q", got)
	}
}

// TestHealthzTyped pins the typed healthz document and its shard field.
func TestHealthzTyped(t *testing.T) {
	srv := New(Options{ShardID: "s1"})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	var h HealthzResult
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != version.Version || h.ShardID != "s1" || h.UptimeSeconds < 0 {
		t.Fatalf("healthz %+v", h)
	}
}

// TestEveryErrorBodyIsAPIError drives every way the service can answer
// non-2xx — unknown endpoint, wrong method, unparsable body, invalid
// spec, oversized body — and checks each body decodes into an APIError
// with a stable code and a request ID. This is the one-error-shape
// contract the router tier reuses verbatim.
func TestEveryErrorBodyIsAPIError(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"unknownEndpoint", http.MethodGet, "/v1/nope", "", http.StatusNotFound, CodeBadRequest},
		{"rootPath", http.MethodGet, "/", "", http.StatusNotFound, CodeBadRequest},
		{"wrongMethod", http.MethodGet, "/v1/evaluate", "", http.StatusMethodNotAllowed, CodeBadRequest},
		{"malformedJSON", http.MethodPost, "/v1/evaluate", `{"system":`, http.StatusBadRequest, CodeBadRequest},
		{"unknownField", http.MethodPost, "/v1/evaluate", `{"bogus": 1}`, http.StatusBadRequest, CodeBadRequest},
		{"invalidEvaluate", http.MethodPost, "/v1/evaluate",
			`{"system": {"preset": "small"}, "message": {"flits": -4, "flitBytes": 256}, "lambda": 1e-4}`,
			http.StatusBadRequest, CodeInvalidSpec},
		{"invalidCampaign", http.MethodPost, "/v1/campaign",
			`{"name": "x", "system": {"preset": "small"}, "traffic": {"flits": 0, "flitBytes": [256], "lambda": {"max": 1e-4, "points": 3}}}`,
			http.StatusBadRequest, CodeInvalidSpec},
		{"invalidOptimize", http.MethodPost, "/v1/optimize", `{"name": "x"}`, http.StatusBadRequest, CodeInvalidSpec},
		{"perfNoSection", http.MethodPost, "/v1/performability",
			`{"name": "x", "system": {"preset": "small"}, "traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 1e-4, "points": 3}}}`,
			http.StatusBadRequest, CodeInvalidSpec},
		{"fleetNoSection", http.MethodPost, "/v1/fleetsim",
			`{"name": "x", "system": {"preset": "small"}, "traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 1e-4, "points": 3}}}`,
			http.StatusBadRequest, CodeInvalidSpec},
		{"batchEnvelope", http.MethodPost, "/v1/batch", `{"items": [`, http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != tc.wantCode {
				t.Fatalf("status %d, want %d (%s)", rec.Code, tc.wantCode, rec.Body.String())
			}
			var ae APIError
			if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil {
				t.Fatalf("body %q is not an APIError: %v", rec.Body.String(), err)
			}
			if ae.Code != tc.wantErr {
				t.Errorf("code %q, want %q (message %q)", ae.Code, tc.wantErr, ae.Message)
			}
			if ae.Message == "" {
				t.Error("empty message")
			}
			if ae.RequestID == "" {
				t.Error("empty request ID")
			}
			if hdr := rec.Header().Get(RequestIDHeader); hdr != ae.RequestID {
				t.Errorf("header request ID %q != body %q", hdr, ae.RequestID)
			}
		})
	}
}

// TestRequestIDPropagation: a caller-supplied X-Request-Id is echoed on
// the response and carried into the error envelope; absent one, the
// middleware mints a 16-hex-digit ID.
func TestRequestIDPropagation(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(`{`))
	req.Header.Set(RequestIDHeader, "trace-abc-123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); got != "trace-abc-123" {
		t.Errorf("echoed ID %q", got)
	}
	var ae APIError
	if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil || ae.RequestID != "trace-abc-123" {
		t.Errorf("error envelope ID %q (err %v)", ae.RequestID, err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if got := rec.Header().Get(RequestIDHeader); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Errorf("minted ID %q is not 16 hex digits", got)
	}
}

// frameProbe is the minimal decode every NDJSON consumer performs:
// dispatch on "kind" alone.
type frameProbe struct {
	Kind  string          `json:"kind"`
	Error json.RawMessage `json:"error"`
}

// TestUnifiedFrameSchema is the table test over all four streaming
// endpoints: every line carries kind ∈ {progress, result, error}, the
// terminal line is a result (or error) frame, and progress never
// follows the terminal frame.
func TestUnifiedFrameSchema(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	cases := []struct {
		name, path, body string
		wantTerminal     string
	}{
		{"batch", "/v1/batch",
			`{"items": [{"id": "a", "kind": "evaluate", "spec": {"system": {"preset": "small"}, "message": {"flits": 16, "flitBytes": 128}, "lambda": 1e-4}}]}`,
			FrameResult},
		{"optimize", "/v1/optimize",
			`{"name": "frame-opt", "space": {"ports": [4], "groups": [{"counts": [4], "treeLevels": [1]}]}, "message": {"flits": 16, "flitBytes": 128}}`,
			FrameResult},
		{"performability", "/v1/performability", perfabSpec, FrameResult},
		{"fleetsim", "/v1/fleetsim", fleetSpec, FrameResult},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			var kinds []string
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if line == "" {
					continue
				}
				var p frameProbe
				if err := json.Unmarshal([]byte(line), &p); err != nil {
					t.Fatalf("line %q: %v", line, err)
				}
				switch p.Kind {
				case FrameProgress, FrameResult, FrameError:
				default:
					t.Fatalf("line %q has kind %q", line, p.Kind)
				}
				kinds = append(kinds, p.Kind)
			}
			if len(kinds) == 0 {
				t.Fatal("no frames")
			}
			if last := kinds[len(kinds)-1]; last != tc.wantTerminal {
				t.Fatalf("terminal frame %q, want %q (sequence %v)", last, tc.wantTerminal, kinds)
			}
			for _, k := range kinds[:len(kinds)-1] {
				if k != FrameProgress {
					t.Fatalf("non-terminal frame %q in %v", k, kinds)
				}
			}
		})
	}
}

// TestStreamErrorFrameIsAPIError: a computation that dies after the
// stream commits reports an in-band "error" frame whose payload is the
// same APIError envelope, request ID included. A pre-cancelled context
// kills the search deterministically after the stream has opened.
func TestStreamErrorFrameIsAPIError(t *testing.T) {
	srv := New(Options{})
	body := []byte(`{"name": "frame-err", "space": {"ports": [4], "groups": [{"counts": [4], "treeLevels": [1]}]}, "message": {"flits": 16, "flitBytes": 128}}`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf strings.Builder
	if _, err := srv.Stream(WithRequestID(ctx, "stream-err-1"), "optimize", body, &buf); err == nil {
		t.Fatal("cancelled search reported no error")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	var el ErrorLine
	if err := json.Unmarshal([]byte(last), &el); err != nil {
		t.Fatalf("terminal line %q: %v", last, err)
	}
	if el.Kind != FrameError || el.Error.Code == "" || el.Error.Message == "" {
		t.Fatalf("error frame %+v", el)
	}
	if el.Error.RequestID != "stream-err-1" {
		t.Errorf("error frame request ID %q", el.Error.RequestID)
	}
}
