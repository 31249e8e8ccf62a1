package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// coalesceSpec is a sampled performability study on the N=544 system:
// about 3,000 distinct states, a few hundred milliseconds on two cores,
// so a second identical request joins it long before it lands.
const coalesceSpec = `{
	"name": "svc-coalesce-544",
	"seed": 3,
	"system": {"preset": "N=544"},
	"traffic": {"flits": 32, "flitBytes": [256], "lambda": {"max": 0.001, "points": 4}},
	"performability": {
		"nodes": [
			{"group": 0, "mttf": 2000, "mttr": 48},
			{"group": 1, "mttf": 2000, "mttr": 48},
			{"group": 2, "mttf": 2000, "mttr": 48}
		],
		"icn2Switches": [{"level": 0, "mttf": 6000, "mttr": 96}, {"level": 1, "mttf": 6000, "mttr": 96}],
		"probe": {"fraction": 0.5},
		"states": {"samples": 60000}
	}
}`

// TestCoalescedStreamSurvivesOwnerDisconnect: two identical
// /v1/performability streams share one computation, and the client that
// started it hangs up after its first progress frame. The other stream
// must still end with the shared result, computed once.
func TestCoalescedStreamSurvivesOwnerDisconnect(t *testing.T) {
	srv, ts := newTestServer(t)
	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/performability", strings.NewReader(coalesceSpec))
	if err != nil {
		t.Fatal(err)
	}
	owner, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Body.Close()
	sc := bufio.NewScanner(owner.Body)
	if !sc.Scan() || !strings.Contains(sc.Text(), `"kind":"progress"`) {
		t.Fatalf("owner's first frame %q (%v)", sc.Text(), sc.Err())
	}

	sharer := make(chan string, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/performability", "application/json", strings.NewReader(coalesceSpec))
		if err != nil {
			sharer <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		sharer <- string(b)
	}()
	until(t, "the second request to join the flight", func() bool { return srv.flight.waiting() == 2 })
	hangUp()
	owner.Body.Close()

	lines := strings.Split(strings.TrimSpace(<-sharer), "\n")
	last := lines[len(lines)-1]
	var rl ResultLine
	if err := json.Unmarshal([]byte(last), &rl); err != nil || rl.Kind != FrameResult || !rl.Cached || rl.Key == "" {
		t.Fatalf("the request sharing the computation ended with %s", last)
	}
	if len(lines) != 1 {
		t.Errorf("the sharing request streamed %d lines, want its one result frame", len(lines))
	}
	if c, n := srv.Computes(), srv.coalesced.Load(); c != 1 || n != 1 {
		t.Errorf("%d computes and %d coalesced, want 1 and 1", c, n)
	}
}

// surfaceCases are documents for every row of the endpoint table, each
// with the APIError code every surface must answer it with ("" for
// success).
var surfaceCases = []struct {
	endpoint, name, spec, code string
}{
	{"evaluate", "valid", smallEvaluate, ""},
	{"evaluate", "invalid", `{"system": {"preset": "small"}, "message": {"flits": 0, "flitBytes": 256}, "lambda": 1e-4}`, CodeInvalidSpec},
	{"evaluate", "undecodable", `{"bogus": 1}`, CodeBadRequest},
	{"sweep", "valid", smallSweep, ""},
	{"sweep", "invalid", `{"system": {"preset": "small"}, "message": {"flits": 32, "flitBytes": 256}, "lambda": {"points": 0}}`, CodeInvalidSpec},
	{"sweep", "undecodable", `{"bogus": 1}`, CodeBadRequest},
	{"campaign", "valid", smallCampaign, ""},
	{"campaign", "invalid", `{"name": "x", "traffic": {}}`, CodeInvalidSpec},
	{"campaign", "undecodable", `{"bogus": 1}`, CodeBadRequest},
	{"optimize", "valid", optimizeSpec, ""},
	{"optimize", "gridOverBudget", strings.Replace(optimizeSpec, `"search": {"maxCandidates": 1000}`,
		`"search": {"method": "grid", "maxCandidates": 2}`, 1), CodeInvalidSpec},
	{"optimize", "undecodable", `{"bogus": 1}`, CodeBadRequest},
	{"performability", "valid", perfabSpec, ""},
	{"performability", "saturatingProbe", strings.Replace(perfabSpec, `"probe": {"fraction": 0.5}`,
		`"probe": {"lambda": 0.9}`, 1), CodeInvalidSpec},
	{"performability", "undecodable", `{"bogus": 1}`, CodeBadRequest},
	{"fleetsim", "valid", fleetSpec, ""},
	{"fleetsim", "noSection", perfabSpec, CodeInvalidSpec},
	{"fleetsim", "undecodable", `{"bogus": 1}`, CodeBadRequest},
}

// surfaceAnswer is what one surface made of a document: its key and
// result payload, or its APIError code.
type surfaceAnswer struct {
	key, result, code string
}

// terminalAnswer reads the last line of an envelope, stream or error
// body.
func terminalAnswer(t *testing.T, body string) surfaceAnswer {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var term struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
		Code   string          `json:"code"`
		Error  *APIError       `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &term); err != nil {
		t.Fatalf("terminal line %q: %v", lines[len(lines)-1], err)
	}
	if term.Error != nil {
		return surfaceAnswer{code: term.Error.Code}
	}
	return surfaceAnswer{key: term.Key, result: string(term.Result), code: term.Code}
}

// TestEverySurfaceAnswersAlike: for every row, the HTTP endpoint, a
// batch item (batch rows) and Stream (streaming rows) — each on a fresh
// server, so each computes — give the same key, byte-identical result
// payloads and the same APIError code.
func TestEverySurfaceAnswersAlike(t *testing.T) {
	for _, tc := range surfaceCases {
		t.Run(tc.endpoint+"/"+tc.name, func(t *testing.T) {
			row := endpoints[rowIndex(tc.endpoint)]
			answers := map[string]surfaceAnswer{
				"http": terminalAnswer(t, post(New(Options{}).Handler(), tc.endpoint, tc.spec, "").Body.String()),
			}
			if row.batch {
				body := `{"items": [{"kind": "` + tc.endpoint + `", "spec": ` + tc.spec + `}]}`
				results, _ := readLines(t, post(New(Options{}).Handler(), "batch", body, "").Body.String())
				a := surfaceAnswer{key: results[0].Key, result: string(results[0].Result)}
				if results[0].Error != nil {
					a = surfaceAnswer{code: results[0].Error.Code}
				}
				answers["batch"] = a
			}
			if row.stream {
				var buf bytes.Buffer
				payload, err := New(Options{}).Stream(context.Background(), tc.endpoint, []byte(tc.spec), &buf)
				switch {
				case err == nil:
					answers["stream"] = terminalAnswer(t, buf.String())
					if answers["stream"].result != string(payload) {
						t.Errorf("Stream returned a payload other than its result frame's")
					}
				case buf.Len() > 0: // the computation failed after the stream began
					answers["stream"] = terminalAnswer(t, buf.String())
				default:
					answers["stream"] = surfaceAnswer{code: apiErrorFor("", err).Code}
				}
			}
			for surface, a := range answers {
				if a.code != tc.code {
					t.Errorf("%s: code %q, want %q", surface, a.code, tc.code)
				}
				if want := answers["http"]; a.key != want.key || a.result != want.result {
					t.Errorf("%s: key %s and result differ from http's key %s", surface, a.key, want.key)
				}
			}
			if tc.code == "" && answers["http"].key == "" {
				t.Error("a valid document was answered without a key")
			}
		})
	}
}
