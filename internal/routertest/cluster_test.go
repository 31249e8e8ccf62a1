package routertest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/service"
)

const (
	sweepSpec = `{
		"system": {"preset": "small"},
		"message": {"flits": 32, "flitBytes": 256},
		"lambda": {"min": 1e-5, "max": 1e-3, "points": 16}
	}`
	campaignSpec = `{
		"name": "routed-test",
		"system": {"preset": "small"},
		"traffic": {"flits": 32, "flitBytes": [256], "lambda": {"max": 1e-3, "points": 4}},
		"assertions": [{"type": "monotonic"}]
	}`
	optimizeSpec = `{
		"name": "routed-opt",
		"space": {
			"ports": [4],
			"icn2Scale": [1, 1.5],
			"groups": [{"counts": [0, 4, 8], "treeLevels": [1, 2], "icn1": ["net1", "net2"]}]
		},
		"message": {"flits": 16, "flitBytes": 128},
		"constraints": {"cost": {"switchBase": 10, "linkBase": 1}},
		"search": {"maxCandidates": 1000}
	}`
)

// specCase is one (endpoint, body) pair driven through the router.
type specCase struct {
	endpoint string // path element after /v1/
	body     string
	stream   bool // NDJSON endpoint: the result is the terminal frame
}

// routedSuite is the fixed workload the determinism tests replay: a
// handful of distinct evaluate keys plus one of each heavier kind.
func routedSuite() []specCase {
	var cases []specCase
	for i := 0; i < 6; i++ {
		cases = append(cases, specCase{"evaluate", fmt.Sprintf(
			`{"system": {"preset": "small"}, "message": {"flits": 32, "flitBytes": 256}, "lambda": %ge-4}`,
			1+float64(i)), false})
	}
	cases = append(cases,
		specCase{"sweep", sweepSpec, false},
		specCase{"campaign", campaignSpec, false},
		specCase{"optimize", optimizeSpec, true},
	)
	return cases
}

// post drives one case through base and returns (key, result bytes,
// shard header, cached flag).
func post(t *testing.T, base string, sc specCase) (key, result, shard string, cached bool) {
	t.Helper()
	resp, err := http.Post(base+"/v1/"+sc.endpoint, "application/json", strings.NewReader(sc.body))
	if err != nil {
		t.Fatalf("POST /v1/%s: %v", sc.endpoint, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST /v1/%s: reading body: %v", sc.endpoint, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/%s = %d: %s", sc.endpoint, resp.StatusCode, body)
	}
	raw := strings.TrimSpace(string(body))
	if sc.stream {
		lines := strings.Split(raw, "\n")
		raw = lines[len(lines)-1]
	}
	var env service.ResultLine // supersets Envelope: cached/key/result
	if err := json.Unmarshal([]byte(raw), &env); err != nil {
		t.Fatalf("POST /v1/%s: terminal %q: %v", sc.endpoint, raw, err)
	}
	if env.Key == "" || len(env.Result) == 0 {
		t.Fatalf("POST /v1/%s: terminal missing key or result: %q", sc.endpoint, raw)
	}
	return env.Key, string(env.Result), resp.Header.Get(service.ShardHeader), env.Cached
}

// runSuite replays the workload and indexes (key, result) by case.
func runSuite(t *testing.T, base string) map[string][2]string {
	t.Helper()
	out := make(map[string][2]string)
	for i, sc := range routedSuite() {
		key, result, _, _ := post(t, base, sc)
		out[fmt.Sprintf("%d:%s", i, sc.endpoint)] = [2]string{key, result}
	}
	return out
}

// waitAllHealthy polls the router's health until every replica is up.
func waitAllHealthy(t *testing.T, c *Cluster, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(c.BaseURL() + "/v1/healthz")
		if err == nil {
			var doc struct {
				Healthy int `json:"healthy"`
			}
			json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if doc.Healthy == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never became healthy (want %d)", want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRoutedDeterminism is the tentpole property: the same specs routed
// through K=1 and K=3 clusters produce byte-identical (key, result)
// pairs, and the K=3 answers stay identical while one replica is killed
// and after it restarts. Cached flags are deliberately not compared —
// the kill flips them, the results must not change.
func TestRoutedDeterminism(t *testing.T) {
	c1, err := Start(Config{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	ref := runSuite(t, c1.BaseURL())

	c3, err := Start(Config{
		Replicas:      3,
		ProbeInterval: 25 * time.Millisecond,
		FailAfter:     1,
		RiseAfter:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()

	check := func(phase string) {
		t.Helper()
		got := runSuite(t, c3.BaseURL())
		for name, want := range ref {
			g, ok := got[name]
			if !ok {
				t.Fatalf("%s: case %s missing", phase, name)
			}
			if g[0] != want[0] {
				t.Errorf("%s: case %s key = %s, want %s (K=1)", phase, name, g[0], want[0])
			}
			if g[1] != want[1] {
				t.Errorf("%s: case %s result differs from K=1 run", phase, name)
			}
		}
	}

	check("all-up")

	// Kill the replica that owns the campaign spec, so at least that
	// key demonstrably fails over, then prove the answers still match.
	key, err := canon.Hash("campaign", json.RawMessage(campaignSpec))
	if err != nil {
		t.Fatal(err)
	}
	home, ok := c3.Router().Pick(string(key))
	if !ok {
		t.Fatal("no healthy replica for campaign key")
	}
	victim, err := strconv.Atoi(strings.TrimPrefix(home.ID, "r"))
	if err != nil {
		t.Fatalf("unexpected replica id %q", home.ID)
	}
	c3.Kill(victim)
	check("one-down")

	if err := c3.Restart(victim); err != nil {
		t.Fatal(err)
	}
	waitAllHealthy(t, c3, 3)
	check("recovered")
}

// TestCacheHitLocality proves sharding partitions the fleet's caches:
// N distinct specs posted twice each through a K=3 router compute
// exactly N times fleet-wide, repeats are cache hits, and every spec
// sticks to one shard.
func TestCacheHitLocality(t *testing.T) {
	c, err := Start(Config{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	suite := routedSuite()
	shards := make(map[int]string, len(suite))
	for i, sc := range suite {
		_, _, shard, cached := post(t, c.BaseURL(), sc)
		if shard == "" {
			t.Fatalf("case %d: no %s header", i, service.ShardHeader)
		}
		if cached {
			t.Fatalf("case %d: first request was already a cache hit", i)
		}
		shards[i] = shard
	}
	for i, sc := range suite {
		_, _, shard, cached := post(t, c.BaseURL(), sc)
		if shard != shards[i] {
			t.Errorf("case %d moved from shard %s to %s between identical requests", i, shards[i], shard)
		}
		if !cached {
			t.Errorf("case %d repeat was not served from the owning shard's cache", i)
		}
	}

	var computes uint64
	for i := 0; i < 3; i++ {
		computes += c.Service(i).Computes()
	}
	if computes != uint64(len(suite)) {
		t.Errorf("fleet computed %d times for %d distinct specs, want exactly one compute each", computes, len(suite))
	}
}

// TestRoutedDuplicateMembersAnswerLikeUnfronted: two bodies that differ
// only inside a duplicated "message" member share the router's shard key
// (its canonical hash keeps the last duplicate) but mean different
// requests (encoding/json merges duplicates: 32 vs 64 flits). Routed
// through K=3, each must get exactly the key and result an unfronted
// replica gives it — the 64-flit system saturates at this rate.
func TestRoutedDuplicateMembersAnswerLikeUnfronted(t *testing.T) {
	c, err := Start(Config{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	direct := httptest.NewServer(service.New(service.Options{}).Handler())
	defer direct.Close()

	results := map[int]string{}
	for _, flits := range []int{32, 64} {
		sc := specCase{"evaluate", fmt.Sprintf(
			`{"system":{"preset":"N=1120"},"message":{"flits":%d},"message":{"flitBytes":256},"lambda":0.0003}`,
			flits), false}
		rkey, rres, _, _ := post(t, c.BaseURL(), sc)
		dkey, dres, _, _ := post(t, direct.URL, sc)
		if rkey != dkey || rres != dres {
			t.Errorf("flits %d: routed (%s, %s) differs from unfronted (%s, %s)", flits, rkey, rres, dkey, dres)
		}
		results[flits] = rres
	}
	var sat struct {
		Saturated bool `json:"saturated"`
	}
	if err := json.Unmarshal([]byte(results[64]), &sat); err != nil || !sat.Saturated {
		t.Errorf("64-flit answer %s is not saturated (err %v)", results[64], err)
	}
	if results[32] == results[64] {
		t.Error("the two spellings got one answer")
	}
}

// TestMidStreamReplicaKill severs a replica while it is streaming and
// asserts the client's stream ends with a parseable in-band error frame
// instead of silent truncation.
func TestMidStreamReplicaKill(t *testing.T) {
	streaming := make(chan struct{})
	c, err := Start(Config{
		Replicas: 1,
		NewHandler: func(id string) http.Handler {
			mux := http.NewServeMux()
			mux.HandleFunc("POST /v1/optimize", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				fmt.Fprintln(w, `{"kind":"progress","evaluated":1}`)
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
				close(streaming)
				<-r.Context().Done() // hold the stream open until killed
			})
			return mux
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := http.Post(c.BaseURL()+"/v1/optimize", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d before the kill", resp.StatusCode)
	}

	go func() {
		<-streaming
		c.Kill(0)
	}()

	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if len(lines) < 2 {
		t.Fatalf("stream ended with %d lines, want progress plus error frame: %v", len(lines), lines)
	}
	var errLine service.ErrorLine
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &errLine); err != nil {
		t.Fatalf("last line %q is not a parseable frame: %v", last, err)
	}
	if errLine.Kind != service.FrameError {
		t.Fatalf("last frame kind = %q, want %q (lines: %v)", errLine.Kind, service.FrameError, lines)
	}
	if errLine.Error.Code != service.CodeShardUnavailable || errLine.Error.RequestID == "" {
		t.Fatalf("error frame = %+v, want %s with a request ID", errLine.Error, service.CodeShardUnavailable)
	}
}

// TestAllReplicasDown asserts the router answers 503 with the typed
// shard_unavailable APIError when the whole fleet is dead.
func TestAllReplicasDown(t *testing.T) {
	c, err := Start(Config{Replicas: 2, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Kill(0)
	c.Kill(1)

	resp, err := http.Post(c.BaseURL()+"/v1/campaign", "application/json", strings.NewReader(campaignSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var ae service.APIError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	if ae.Code != service.CodeShardUnavailable || ae.RequestID == "" {
		t.Fatalf("body = %+v, want code %s with a request ID", ae, service.CodeShardUnavailable)
	}

	// The router's own healthz must agree once the failures are
	// observed (the failed forwards above already marked both down).
	hresp, err := http.Get(c.BaseURL() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router healthz = %d with all replicas dead, want 503", hresp.StatusCode)
	}
}

// TestFlappingReplicaDoesNotThrash runs replicas whose health probes
// alternate ok/fail — strictly worse than any real flap — and asserts
// the hysteresis keeps every replica in service: zero health
// transitions and a fixed shard assignment throughout. A probe times out
// after one probe interval, and a timed-out probe next to a failed one
// is two consecutive failures, a real outage; the interval is long
// enough that a probe delayed by a loaded machine does not time out,
// and the window holds about 45 probes.
func TestFlappingReplicaDoesNotThrash(t *testing.T) {
	var probeN atomic.Int64
	c, err := Start(Config{
		Replicas:      3,
		ProbeInterval: 100 * time.Millisecond,
		NewHandler: func(id string) http.Handler {
			// Alternation must be per replica: a shared counter would
			// let probe interleaving hand one replica two consecutive
			// failures, which is a real outage, not a flap.
			var mine atomic.Int64
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
				probeN.Add(1)
				if mine.Add(1)%2 == 0 {
					http.Error(w, "flap", http.StatusInternalServerError)
					return
				}
				fmt.Fprintln(w, `{"status":"ok"}`)
			})
			mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				w.Header().Set(service.ShardHeader, id)
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintln(w, `{"cached":false,"key":"v1:x","result":{}}`)
			})
			return mux
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	body := `{"system": {"preset": "small"}, "lambda": 1e-4}`
	var firstShard string
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		resp, err := http.Post(c.BaseURL()+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		shard := resp.Header.Get(service.ShardHeader)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d while replicas flap, want 200", resp.StatusCode)
		}
		if firstShard == "" {
			firstShard = shard
		} else if shard != firstShard {
			t.Fatalf("assignment moved from %s to %s while replicas flapped", firstShard, shard)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if probeN.Load() < 20 {
		t.Fatalf("only %d probes ran; the flap was not exercised", probeN.Load())
	}

	var sb strings.Builder
	if err := c.Router().Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "ccrouter_health_transitions_total") {
			if !strings.HasSuffix(strings.TrimSpace(line), " 0") {
				t.Fatalf("flapping caused health transitions: %s", line)
			}
			return
		}
	}
	t.Fatal("ccrouter_health_transitions_total not found in metrics")
}
