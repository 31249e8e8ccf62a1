package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/reqtrace"
)

// repeatCases are the six keyed single-spec endpoints with one valid and
// one invalid body each.
var repeatCases = []struct {
	endpoint, body, invalid string
	stream                  bool
}{
	{"evaluate", smallEvaluate,
		`{"system": {"preset": "small"}, "message": {"flits": 0, "flitBytes": 256}, "lambda": 1e-4}`, false},
	{"sweep", smallSweep,
		`{"system": {"preset": "small"}, "message": {"flits": 32, "flitBytes": 256}, "lambda": {"points": 0}}`, false},
	{"campaign", smallCampaign, `{"name": "x", "traffic": {}}`, false},
	{"performability", perfabSpec, smallCampaign, true},
	{"optimize", optimizeSpec, `{"name": "bad"}`, true},
	{"fleetsim", fleetSpec, perfabSpec, true},
}

// evictor is an evaluate spec no repeat case uses: computing it pushes
// the case's entry out of a one-entry cache.
const evictor = `{"system": {"preset": "small"}, "message": {"flits": 32, "flitBytes": 256}, "lambda": 7e-4}`

// post drives one request through h in-process; a non-empty reqID is
// sent as X-Request-Id so error bodies can compare byte for byte.
func post(h http.Handler, endpoint, body, reqID string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/"+endpoint, strings.NewReader(body))
	if reqID != "" {
		req.Header.Set(RequestIDHeader, reqID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// respell changes a body's bytes without changing its meaning, so the
// request misses the body digest and takes the full decode→canon path.
func respell(body string) string { return "\n " + body + "\n" }

// terminal returns the envelope, or a stream's last frame, of rec.
func terminal(t *testing.T, rec *httptest.ResponseRecorder) ResultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var rl ResultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
		t.Fatalf("terminal line %q: %v", lines[len(lines)-1], err)
	}
	return rl
}

// sameAnswer fails unless a and b carry the same status, headers (all
// but the per-request Server-Timing and X-Request-Id) and body bytes.
func sameAnswer(t *testing.T, what string, a, b *httptest.ResponseRecorder) {
	t.Helper()
	if a.Code != b.Code {
		t.Errorf("%s: status %d vs %d", what, a.Code, b.Code)
	}
	strip := func(h http.Header) http.Header {
		h = h.Clone()
		h.Del("Server-Timing")
		h.Del(RequestIDHeader)
		return h
	}
	if ha, hb := strip(a.Header()), strip(b.Header()); fmt.Sprint(ha) != fmt.Sprint(hb) {
		t.Errorf("%s: headers differ:\n%v\n%v", what, ha, hb)
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Errorf("%s: bodies differ:\n%s\n%s", what, a.Body, b.Body)
	}
}

// counters are the /v1/stats counters a request moves, alias counters
// aside.
func counters(s *Server) [13]uint64 {
	c := s.cache.Stats()
	r := &s.requests
	return [13]uint64{r[0].Load(), r[1].Load(), r[2].Load(), r[3].Load(),
		r[4].Load(), r[5].Load(), s.computes.Load(), s.coalesced.Load(), s.failures.Load(),
		s.writeErrors.Load(), c.Hits, c.Misses, uint64(c.Entries)}
}

func delta(a, b [13]uint64) (d [13]uint64) {
	for i := range a {
		d[i] = b[i] - a[i]
	}
	return d
}

// TestAliasHitEqualsFullPath is the hit-equals-miss proof for the body
// digest: on every keyed endpoint, an exact repeat answers with the same
// status, headers, body bytes and counter moves as a respelled request
// that decodes and canonicalizes, and both carry the first answer's
// result bytes.
func TestAliasHitEqualsFullPath(t *testing.T) {
	for _, tc := range repeatCases {
		t.Run(tc.endpoint, func(t *testing.T) {
			srv := New(Options{})
			h := srv.Handler()
			first := post(h, tc.endpoint, tc.body, "")
			if first.Code != http.StatusOK || terminal(t, first).Cached {
				t.Fatalf("first request: %d %s", first.Code, first.Body)
			}

			c0 := counters(srv)
			exact := post(h, tc.endpoint, tc.body, "")
			c1 := counters(srv)
			full := post(h, tc.endpoint, respell(tc.body), "")
			c2 := counters(srv)

			sameAnswer(t, "exact repeat vs respelled", exact, full)
			if d1, d2 := delta(c0, c1), delta(c1, c2); d1 != d2 {
				t.Errorf("counter moves differ: exact %v, respelled %v", d1, d2)
			}
			rl := terminal(t, exact)
			if !rl.Cached || !bytes.Equal(rl.Result, terminal(t, first).Result) || rl.Key != terminal(t, first).Key {
				t.Errorf("repeat %+v does not carry the first answer", rl)
			}
			if !tc.stream && exact.Header().Get("X-Cache") != classHit {
				t.Errorf("X-Cache = %q, want hit", exact.Header().Get("X-Cache"))
			}
			if st := srv.cache.Stats(); st.AliasHits != 1 || st.Aliases != 2 {
				t.Errorf("alias hits %d (want 1: the exact repeat), aliases %d (want 2: both spellings)",
					st.AliasHits, st.Aliases)
			}
		})
	}
}

// TestInvalidBodyNeverAliased: a rejected body is rejected identically
// every time it is sent and leaves no alias behind.
func TestInvalidBodyNeverAliased(t *testing.T) {
	for _, tc := range repeatCases {
		t.Run(tc.endpoint, func(t *testing.T) {
			srv := New(Options{})
			h := srv.Handler()
			a := post(h, tc.endpoint, tc.invalid, "same-id")
			b := post(h, tc.endpoint, tc.invalid, "same-id")
			if a.Code != http.StatusBadRequest {
				t.Fatalf("invalid body: status %d: %s", a.Code, a.Body)
			}
			sameAnswer(t, "second rejection", a, b)
			if st := srv.cache.Stats(); st.Aliases != 0 || st.AliasHits != 0 || st.Entries != 0 {
				t.Errorf("invalid body left cache state %+v", st)
			}
		})
	}
}

// TestAliasDiesWithEntry: evicting or expiring an entry takes its
// aliases with it, and the next exact repeat computes again.
func TestAliasDiesWithEntry(t *testing.T) {
	for _, tc := range repeatCases {
		t.Run(tc.endpoint+"/evicted", func(t *testing.T) {
			srv := New(Options{CacheEntries: 1})
			h := srv.Handler()
			post(h, tc.endpoint, tc.body, "")
			if rec := post(h, "evaluate", evictor, ""); rec.Code != http.StatusOK {
				t.Fatalf("evictor: %d %s", rec.Code, rec.Body)
			}
			if st := srv.cache.Stats(); st.Evictions != 1 || st.Aliases != 1 {
				t.Fatalf("after eviction: %+v, want 1 eviction and only the evictor's alias", st)
			}
			again := post(h, tc.endpoint, tc.body, "")
			if terminal(t, again).Cached || srv.Computes() != 3 {
				t.Errorf("repeat after eviction: cached %v, %d computes (want a third)",
					terminal(t, again).Cached, srv.Computes())
			}
		})
		t.Run(tc.endpoint+"/expired", func(t *testing.T) {
			srv := New(Options{CacheTTL: time.Minute})
			now := time.Unix(1000, 0)
			srv.cache.now = func() time.Time { return now }
			h := srv.Handler()
			post(h, tc.endpoint, tc.body, "")
			now = now.Add(2 * time.Minute)
			again := post(h, tc.endpoint, tc.body, "")
			st := srv.cache.Stats()
			if terminal(t, again).Cached || srv.Computes() != 2 || st.Expirations != 1 || st.AliasHits != 0 {
				t.Errorf("repeat after expiry: cached %v, %d computes, stats %+v",
					terminal(t, again).Cached, srv.Computes(), st)
			}
			if st.Aliases != 1 {
				t.Errorf("aliases = %d after recompute, want the one fresh alias", st.Aliases)
			}
		})
	}
}

// TestConcurrentRepeats sends one body from many goroutines at once on a
// cold server: every answer carries the same key and result, and the
// body computes once whichever way each request was answered.
func TestConcurrentRepeats(t *testing.T) {
	for _, tc := range repeatCases {
		t.Run(tc.endpoint, func(t *testing.T) {
			srv := New(Options{})
			h := srv.Handler()
			const n = 8
			recs := make([]*httptest.ResponseRecorder, n)
			var wg sync.WaitGroup
			for i := range recs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					recs[i] = post(h, tc.endpoint, tc.body, "")
				}()
			}
			wg.Wait()
			want := terminal(t, recs[0])
			for i, rec := range recs {
				got := terminal(t, rec)
				if rec.Code != http.StatusOK || got.Key != want.Key || !bytes.Equal(got.Result, want.Result) {
					t.Errorf("answer %d: %d %+v differs from answer 0", i, rec.Code, got)
				}
			}
			if srv.Computes() != 1 {
				t.Errorf("%d computes for one body, want 1", srv.Computes())
			}
		})
	}
}

// countingRequest is a request with a fixed key that counts its
// computations.
type countingRequest struct {
	k        canon.Key
	computed int
}

func (r *countingRequest) key() (canon.Key, error) { return r.k, nil }

func (r *countingRequest) compute(context.Context, func(any)) (any, error) {
	r.computed++
	return r.computed, nil
}

// TestFlightRechecksCache: a flight started after another flight for
// the same key stored its result and landed — the window between a
// missed lookup and Join — answers from the cache without computing and
// without counting a second lookup; with nothing cached it computes
// once and caches the result.
func TestFlightRechecksCache(t *testing.T) {
	srv := New(Options{})
	req := &countingRequest{k: "v2:recheck"}
	srv.cache.Put(req.k, []byte("41"))
	v, found, err := srv.fly(context.Background(), nil, req.k, req, noProgress)
	if err != nil || !found || string(v) != "41" || req.computed != 0 || srv.Computes() != 0 {
		t.Errorf("cached key: %q found %v err %v, %d computes", v, found, err, srv.Computes())
	}
	if st := srv.cache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("the re-check counted %d hits and %d misses, want none", st.Hits, st.Misses)
	}

	cold := &countingRequest{k: "v2:cold"}
	v, found, err = srv.fly(context.Background(), nil, cold.k, cold, noProgress)
	if err != nil || found || string(v) != "1" || cold.computed != 1 || srv.Computes() != 1 {
		t.Errorf("cold key: %q found %v err %v, %d computes", v, found, err, srv.Computes())
	}
	if got, ok := srv.cache.Get(cold.k); !ok || string(got) != "1" {
		t.Errorf("cold key cached %q %v, want the computed result", got, ok)
	}
}

// TestAliasHitSkipsDecode: the traced exact repeat records one cache
// span looked up via=body and no decode or canon stage; the respelled
// request decodes, canonicalizes and hits via=key.
func TestAliasHitSkipsDecode(t *testing.T) {
	srv := New(Options{Tracer: reqtrace.New(reqtrace.Options{Component: "test"})})
	h := srv.Handler()
	post(h, "evaluate", smallEvaluate, "")
	exact := post(h, "evaluate", smallEvaluate, "")
	full := post(h, "evaluate", respell(smallEvaluate), "")
	if st := exact.Header().Get("Server-Timing"); !strings.Contains(st, "cache;") ||
		strings.Contains(st, "decode") || strings.Contains(st, "canon") {
		t.Errorf("exact repeat Server-Timing %q: want cache only", st)
	}
	if st := full.Header().Get("Server-Timing"); !strings.Contains(st, "decode") || !strings.Contains(st, "canon") {
		t.Errorf("respelled Server-Timing %q: want decode and canon", st)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces", nil))
	var cacheSpans []string
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var tr struct {
			Spans []struct {
				Name  string            `json:"name"`
				Attrs map[string]string `json:"attrs"`
			} `json:"spans"`
		}
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		for _, sp := range tr.Spans {
			if sp.Name == "cache" {
				cacheSpans = append(cacheSpans, sp.Attrs["via"]+"/"+sp.Attrs["class"])
			}
		}
	}
	// First request: body miss, key miss. Exact repeat: body hit.
	// Respelled: body miss, key hit.
	want := "body/ key/ body/hit body/ key/hit"
	if got := strings.Join(cacheSpans, " "); got != want {
		t.Errorf("cache spans %q, want %q", got, want)
	}
}

// TestAppendResultMatchesEncoder: the envelope and result frame written
// around a stored payload are byte-identical to what json.Encoder makes
// of the Envelope and ResultLine structs, HTML-sensitive characters
// included.
func TestAppendResultMatchesEncoder(t *testing.T) {
	payload, err := json.Marshal(map[string]any{"note": "a<b && c>d \u2028 \u2029", "x": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	key := canon.MustHash("k")
	for _, cached := range []bool{false, true} {
		var env, frame, summary bytes.Buffer
		json.NewEncoder(&env).Encode(Envelope{Cached: cached, Key: string(key), Result: payload})
		json.NewEncoder(&frame).Encode(ResultLine{Kind: FrameResult, Cached: cached, Key: string(key), Result: payload})
		json.NewEncoder(&summary).Encode(ResultLine{Kind: FrameResult, Cached: cached, Result: payload})
		if got := appendResult(nil, false, cached, key, payload); !bytes.Equal(got, env.Bytes()) {
			t.Errorf("envelope:\n%s\nencoder:\n%s", got, env.Bytes())
		}
		if got := appendResult(nil, true, cached, key, payload); !bytes.Equal(got, frame.Bytes()) {
			t.Errorf("frame:\n%s\nencoder:\n%s", got, frame.Bytes())
		}
		if got := appendResult(nil, true, cached, "", payload); !bytes.Equal(got, summary.Bytes()) {
			t.Errorf("keyless frame:\n%s\nencoder:\n%s", got, summary.Bytes())
		}
	}
}

// TestCampaignSeedsBeyondFloatPrecision: uint64 seeds 2^53 and 2^53+1
// are different campaigns. One server must compute both (the second is
// not a cache hit on the first) and answer the second exactly like a
// fresh server does.
func TestCampaignSeedsBeyondFloatPrecision(t *testing.T) {
	body := func(seed uint64) string {
		return fmt.Sprintf(`{"name": "des-small", "seed": %d, "system": {"preset": "small"},
			"traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 0.004, "points": 2}},
			"engines": {"simulation": true, "warmup": 100, "measure": 1000}}`, seed)
	}
	const lo, hi = uint64(1) << 53, uint64(1)<<53 + 1
	h := New(Options{}).Handler()
	a, b := post(h, "campaign", body(lo), ""), post(h, "campaign", body(hi), "")
	fresh := post(New(Options{}).Handler(), "campaign", body(hi), "")
	for _, rec := range []*httptest.ResponseRecorder{a, b, fresh} {
		if rec.Code != http.StatusOK {
			t.Fatalf("campaign: %d %s", rec.Code, rec.Body)
		}
	}
	ra, rb, rf := terminal(t, a), terminal(t, b), terminal(t, fresh)
	if rb.Cached || ra.Key == rb.Key {
		t.Errorf("seed 2^53+1 answered from seed 2^53's entry (cached %v, keys %s / %s)", rb.Cached, ra.Key, rb.Key)
	}
	if !bytes.Equal(rb.Result, rf.Result) || rb.Key != rf.Key {
		t.Error("seed 2^53+1 on a warm server differs from a fresh server's answer")
	}
	if bytes.Equal(ra.Result, rb.Result) {
		t.Error("the two seeds simulated identically; the test no longer tells them apart")
	}
}

// TestOversizedBodyRejected: answerRepeat reads the body under the
// 1 MiB cap, and a body over it is the same 400 bad_request on every
// keyed endpoint.
func TestOversizedBodyRejected(t *testing.T) {
	h := New(Options{}).Handler()
	big := `{"name": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, tc := range repeatCases {
		rec := post(h, tc.endpoint, big, "")
		var ae APIError
		if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil || rec.Code != http.StatusBadRequest ||
			ae.Code != CodeBadRequest || !strings.HasPrefix(ae.Message, "reading request body") {
			t.Errorf("%s: %d %s", tc.endpoint, rec.Code, rec.Body)
		}
	}
}
