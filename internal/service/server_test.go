package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// doJSON posts body and decodes the response into out (if non-nil),
// returning the status code and raw body.
func doJSON(t *testing.T, method, url, body string, out any) (int, string) {
	t.Helper()
	var resp *http.Response
	var err error
	switch method {
	case http.MethodGet:
		resp, err = http.Get(url)
	default:
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body2, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	raw := string(body2)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body2, out); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp.StatusCode, raw
}

const smallEvaluate = `{
	"system": {"preset": "small"},
	"message": {"flits": 32, "flitBytes": 256},
	"lambda": 1e-4
}`

const smallSweep = `{
	"system": {"preset": "small"},
	"message": {"flits": 32, "flitBytes": 256},
	"lambda": {"min": 1e-5, "max": 1e-3, "points": 16}
}`

const smallCampaign = `{
	"name": "svc-test",
	"system": {"preset": "small"},
	"traffic": {"flits": 32, "flitBytes": [256], "lambda": {"max": 1e-3, "points": 4}},
	"assertions": [{"type": "monotonic"}]
}`

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var out map[string]any
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", "", &out)
	if code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", code, body)
	}
	if out["status"] != "ok" {
		t.Errorf("status = %v, want ok", out["status"])
	}
	if out["version"] == "" {
		t.Error("version missing")
	}
}

func TestEvaluateComputesAndCaches(t *testing.T) {
	srv, ts := newTestServer(t)

	var env Envelope
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", smallEvaluate, &env)
	if code != http.StatusOK {
		t.Fatalf("evaluate = %d: %s", code, body)
	}
	if env.Cached {
		t.Error("first request reported cached")
	}
	if !strings.HasPrefix(env.Key, "v2:") {
		t.Errorf("key %q missing canon scheme", env.Key)
	}
	var res EvaluateResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.MeanLatency == nil || *res.MeanLatency <= 0 {
		t.Errorf("unexpected result: %+v", res)
	}
	if res.System.Nodes != 24 || res.System.Clusters != 4 {
		t.Errorf("system info = %+v, want small preset (24 nodes, 4 clusters)", res.System)
	}

	// Identical request (different JSON spelling) must hit the cache.
	respelled := `{"lambda": 1.0e-4, "message": {"flitBytes": 256, "flits": 32}, "system": {"preset": "small"}}`
	var env2 Envelope
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", respelled, &env2)
	if code != http.StatusOK {
		t.Fatalf("second evaluate = %d: %s", code, body)
	}
	if !env2.Cached {
		t.Error("respelled identical request missed the cache")
	}
	if env2.Key != env.Key {
		t.Errorf("respelled request keyed %s, first keyed %s", env2.Key, env.Key)
	}
	if got := srv.Computes(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}

	// A different lambda must compute anew.
	var env3 Envelope
	doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", strings.Replace(smallEvaluate, "1e-4", "2e-4", 1), &env3)
	if env3.Cached || env3.Key == env.Key {
		t.Error("distinct request aliased the cached one")
	}
}

func TestEvaluateSaturatedIsNull(t *testing.T) {
	_, ts := newTestServer(t)
	body := strings.Replace(smallEvaluate, "1e-4", "0.9", 1)
	var env Envelope
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", body, &env)
	if code != http.StatusOK {
		t.Fatalf("evaluate = %d: %s", code, raw)
	}
	var res EvaluateResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || res.MeanLatency != nil {
		t.Errorf("saturated rate returned %+v, want saturated with null latency", res)
	}
}

func TestEvaluateValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed", `{"system": `, "unexpected EOF"},
		{"unknownField", `{"system": {"preset": "small"}, "mesage": {}, "lambda": 1e-4}`, "unknown field"},
		{"typeError", `{"system": {"preset": 5}, "message": {"flits": 32, "flitBytes": 256}, "lambda": 1e-4}`, "system"},
		{"badLambda", `{"system": {"preset": "small"}, "message": {"flits": 32, "flitBytes": 256}, "lambda": -1}`, "lambda: must be a positive finite rate"},
		{"badFlits", `{"system": {"preset": "small"}, "message": {"flits": 0, "flitBytes": 256}, "lambda": 1e-4}`, "message.flits: must be positive"},
		{"badPreset", `{"system": {"preset": "huge"}, "message": {"flits": 32, "flitBytes": 256}, "lambda": 1e-4}`, "system.preset: unknown preset"},
		{"badVariant", `{"system": {"preset": "small"}, "message": {"flits": 32, "flitBytes": 256}, "model": {"variant": "x"}, "lambda": 1e-4}`, "model.variant: unknown variant"},
		{"badPorts", `{"system": {"ports": 3, "clusters": [{"count": 4, "treeLevels": 1}]}, "message": {"flits": 32, "flitBytes": 256}, "lambda": 1e-4}`, "system.ports: must be an even integer"},
		{"trailing", smallEvaluate + ` {"again": true}`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", tc.body, nil)
			if code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", code, raw)
			}
			if !strings.Contains(raw, tc.wantErr) {
				t.Errorf("error %q does not mention %q", raw, tc.wantErr)
			}
		})
	}
}

func TestSweepGridAndCache(t *testing.T) {
	srv, ts := newTestServer(t)
	var env Envelope
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sweep", smallSweep, &env)
	if code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", code, raw)
	}
	var res SweepResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 16 {
		t.Fatalf("points = %d, want 16", len(res.Points))
	}
	if res.SaturationPoint <= 0 {
		t.Errorf("saturation point = %v", res.SaturationPoint)
	}
	var prev float64
	for i, p := range res.Points {
		if p.Saturated {
			continue
		}
		if p.MeanLatency == nil || *p.MeanLatency < prev {
			t.Fatalf("point %d: latency not nondecreasing (%v after %v)", i, p.MeanLatency, prev)
		}
		prev = *p.MeanLatency
	}

	var env2 Envelope
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweep", smallSweep, &env2)
	if !env2.Cached || env2.Key != env.Key {
		t.Error("identical sweep did not hit the cache")
	}
	if got := srv.Computes(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}
}

func TestSweepAutoGrid(t *testing.T) {
	srv, ts := newTestServer(t)
	body := `{
		"system": {"preset": "small"},
		"message": {"flits": 32, "flitBytes": 256},
		"lambda": {"auto": true, "points": 8}
	}`
	var env Envelope
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sweep", body, &env)
	if code != http.StatusOK {
		t.Fatalf("auto sweep = %d: %s", code, raw)
	}
	var res SweepResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 {
		t.Fatalf("points = %d, want 8", len(res.Points))
	}
	// An auto grid stops at 95% of saturation: every point stays stable.
	for i, p := range res.Points {
		if p.Saturated {
			t.Errorf("auto-grid point %d saturated at λ=%v", i, p.Lambda)
		}
	}

	// Auto sweeps key on the un-materialized lambda spec, so repeats hit
	// the cache without paying the saturation bisection; spelling the
	// default autoFraction explicitly must land on the same entry.
	var env2 Envelope
	explicit := strings.Replace(body, `"auto": true`, `"auto": true, "autoFraction": 0.95`, 1)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweep", explicit, &env2)
	if !env2.Cached || env2.Key != env.Key {
		t.Errorf("explicit-default auto sweep keyed %s cached=%v, want cache hit on %s",
			env2.Key, env2.Cached, env.Key)
	}
	if got := srv.Computes(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body, wantErr string
	}{
		{"descendingValues", `{"system": {"preset": "small"}, "message": {"flits": 32, "flitBytes": 256}, "lambda": {"values": [2e-4, 1e-4]}}`, "lambda.values"},
		{"noPoints", `{"system": {"preset": "small"}, "message": {"flits": 32, "flitBytes": 256}, "lambda": {"max": 1e-3}}`, "lambda.points"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sweep", tc.body, nil)
			if code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", code, raw)
			}
			if !strings.Contains(raw, tc.wantErr) {
				t.Errorf("error %q does not mention %q", raw, tc.wantErr)
			}
		})
	}
}

func TestCampaignRunsSpec(t *testing.T) {
	srv, ts := newTestServer(t)
	var env Envelope
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/campaign", smallCampaign, &env)
	if code != http.StatusOK {
		t.Fatalf("campaign = %d: %s", code, raw)
	}
	var res CampaignResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Name != "svc-test" || !res.Passed {
		t.Errorf("result = %+v, want passed svc-test", res)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 4 {
		t.Fatalf("series layout = %+v, want 1 series × 4 points", res.Series)
	}
	if len(res.Assertions) != 1 || !res.Assertions[0].Pass {
		t.Errorf("assertions = %+v", res.Assertions)
	}

	var env2 Envelope
	doJSON(t, http.MethodPost, ts.URL+"/v1/campaign", smallCampaign, &env2)
	if !env2.Cached || env2.Key != env.Key {
		t.Error("identical campaign did not hit the cache")
	}
	if got := srv.Computes(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}

	// seed: 1 is the runner default; it must share the omitted-seed entry.
	withSeed := strings.Replace(smallCampaign, `"name": "svc-test",`, `"name": "svc-test", "seed": 1,`, 1)
	var env3 Envelope
	doJSON(t, http.MethodPost, ts.URL+"/v1/campaign", withSeed, &env3)
	if env3.Key != env.Key {
		t.Errorf("seed:1 keyed %s, omitted seed keyed %s; want equal", env3.Key, env.Key)
	}
}

func TestCampaignValidation(t *testing.T) {
	_, ts := newTestServer(t)
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/campaign",
		`{"system": {"preset": "small"}, "traffic": {"flits": 32, "flitBytes": [256], "lambda": {"max": 1e-3, "points": 4}}}`, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", code, raw)
	}
	if !strings.Contains(raw, "name: required") {
		t.Errorf("error %q does not carry the field path", raw)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/evaluate", "", nil)
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate = %d, want 405", code)
	}
	resp, err := http.Post(ts.URL+"/v1/healthz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/healthz = %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentIdenticalRequestsComputeOnce fires many identical sweep
// requests at once: between the cache and singleflight coalescing the
// model must be computed exactly once, and exactly one response may
// report cached=false.
func TestConcurrentIdenticalRequestsComputeOnce(t *testing.T) {
	srv, ts := newTestServer(t)
	const clients = 16
	body := `{
		"system": {"preset": "N=1120"},
		"message": {"flits": 32, "flitBytes": 256},
		"lambda": {"min": 1e-5, "max": 4.5e-4, "points": 64}
	}`
	var wg sync.WaitGroup
	uncached := make([]bool, clients)
	keys := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var env Envelope
			code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sweep", body, &env)
			if code != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, code, raw)
				return
			}
			uncached[i] = !env.Cached
			keys[i] = env.Key
		}(i)
	}
	wg.Wait()

	if got := srv.Computes(); got != 1 {
		t.Errorf("computes = %d, want exactly 1 for %d concurrent identical requests", got, clients)
	}
	n := 0
	for _, u := range uncached {
		if u {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d responses reported cached=false, want exactly 1", n)
	}
	for i := 1; i < clients; i++ {
		if keys[i] != keys[0] {
			t.Fatalf("client %d keyed %s, client 0 keyed %s", i, keys[i], keys[0])
		}
	}
}

func TestStatsCounters(t *testing.T) {
	_, ts := newTestServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", smallEvaluate, nil)
	doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", smallEvaluate, nil)
	doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"bad`, nil)

	var stats StatsResult
	code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", &stats)
	if code != http.StatusOK {
		t.Fatalf("stats = %d: %s", code, raw)
	}
	if stats.Evaluates != 3 {
		t.Errorf("evaluates = %d, want 3", stats.Evaluates)
	}
	if stats.Computes != 1 {
		t.Errorf("computes = %d, want 1", stats.Computes)
	}
	if stats.Failures != 1 {
		t.Errorf("failures = %d, want 1", stats.Failures)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 entry", stats.Cache)
	}
	if want := runtime.GOMAXPROCS(0); stats.Workers != want {
		t.Errorf("workers = %d, want GOMAXPROCS %d", stats.Workers, want)
	}
}
