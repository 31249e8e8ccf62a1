package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/ccnet/ccnet/internal/service"
)

func testReplicas(n int) []Replica {
	out := make([]Replica, n)
	for i := range out {
		out[i] = Replica{ID: fmt.Sprintf("r%d", i), URL: fmt.Sprintf("http://replica-%d", i)}
	}
	return out
}

func TestNewRingValidation(t *testing.T) {
	if _, err := newRing(nil, 0); err == nil {
		t.Fatal("empty replica set: want error")
	}
	if _, err := newRing([]Replica{{ID: "a"}}, 0); err == nil {
		t.Fatal("missing url: want error")
	}
	if _, err := newRing([]Replica{{URL: "http://x"}}, 0); err == nil {
		t.Fatal("missing id: want error")
	}
	if _, err := newRing([]Replica{{ID: "a", URL: "http://x"}, {ID: "a", URL: "http://y"}}, 0); err == nil {
		t.Fatal("duplicate id: want error")
	}
}

func TestRingDistribution(t *testing.T) {
	reps := testReplicas(4)
	rg, err := newRing(reps, 64)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 10000
	counts := make([]int, len(reps))
	for k := 0; k < keys; k++ {
		c := rg.candidates(fmt.Sprintf("key-%d", k))
		if len(c) != len(reps) {
			t.Fatalf("candidates(%d) returned %d entries, want %d", k, len(c), len(reps))
		}
		seen := map[int]bool{}
		for _, i := range c {
			if seen[i] {
				t.Fatalf("candidates(%d) repeats replica %d", k, i)
			}
			seen[i] = true
		}
		counts[c[0]]++
	}
	// With 64 vnodes the home-shard split should be within a factor of
	// two of fair share on 10k keys.
	fair := keys / len(reps)
	for i, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Errorf("replica %d owns %d of %d keys, want within [%d, %d]", i, n, keys, fair/2, fair*2)
		}
	}
}

func TestRingCandidateOrderIsDeterministic(t *testing.T) {
	reps := testReplicas(5)
	a, _ := newRing(reps, 64)
	b, _ := newRing(reps, 64)
	for k := 0; k < 100; k++ {
		key := fmt.Sprintf("key-%d", k)
		ca, cb := a.candidates(key), b.candidates(key)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("key %q: ring rebuild changed candidate order %v vs %v", key, ca, cb)
			}
		}
	}
}

func TestHealthHysteresis(t *testing.T) {
	var flips []bool
	h := newHealth(1, 2, 2, func(i int, healthy bool) { flips = append(flips, healthy) })

	if !h.isHealthy(0) {
		t.Fatal("replicas must start healthy")
	}
	h.observe(0, false, 0, "boom")
	if !h.isHealthy(0) {
		t.Fatal("one failure must not mark the replica down (failAfter=2)")
	}
	h.observe(0, false, 0, "boom")
	if h.isHealthy(0) {
		t.Fatal("two consecutive failures must mark the replica down")
	}
	h.observe(0, true, 0, "")
	if h.isHealthy(0) {
		t.Fatal("one success must not revive the replica (riseAfter=2)")
	}
	h.observe(0, true, 0, "")
	if !h.isHealthy(0) {
		t.Fatal("two consecutive successes must revive the replica")
	}
	if len(flips) != 2 || flips[0] != false || flips[1] != true {
		t.Fatalf("transitions = %v, want [false true]", flips)
	}
}

func TestHealthFlappingDoesNotThrash(t *testing.T) {
	flips := 0
	h := newHealth(1, 2, 2, func(int, bool) { flips++ })
	// Strict alternation never reaches two consecutive anything, so the
	// replica must stay healthy throughout and never transition.
	for i := 0; i < 50; i++ {
		h.observe(0, i%2 == 0, 0, "flap")
		if !h.isHealthy(0) {
			t.Fatalf("iteration %d: flapping replica was marked down", i)
		}
	}
	if flips != 0 {
		t.Fatalf("flapping caused %d health transitions, want 0", flips)
	}
}

func TestHealthProbeEWMA(t *testing.T) {
	h := newHealth(1, 2, 2, nil)
	h.observe(0, true, 100*time.Millisecond, "")
	snap := h.snapshot(testReplicas(1))
	if got := snap[0].ProbeLatencySeconds; got != 0.1 {
		t.Fatalf("first sample seeds the EWMA: got %v, want 0.1", got)
	}
	h.observe(0, true, 200*time.Millisecond, "")
	snap = h.snapshot(testReplicas(1))
	want := probeEWMAAlpha*0.2 + (1-probeEWMAAlpha)*0.1
	if got := snap[0].ProbeLatencySeconds; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("EWMA after second sample = %v, want %v", got, want)
	}
}

// newTestRouter builds a Router without starting probers so the health
// set can be driven by hand.
func newTestRouter(t *testing.T, n int) *Router {
	t.Helper()
	r, err := New(Options{Replicas: testReplicas(n)})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// markDown/markUp flip a replica through the hysteresis thresholds.
func markDown(r *Router, i int) {
	r.health.observe(i, false, 0, "killed")
	r.health.observe(i, false, 0, "killed")
}

func markUp(r *Router, i int) {
	r.health.observe(i, true, 0, "")
	r.health.observe(i, true, 0, "")
}

func TestPickStabilityUnderChurn(t *testing.T) {
	r := newTestRouter(t, 3)
	const keys = 2000
	before := make([]string, keys)
	for k := range before {
		rep, ok := r.Pick(fmt.Sprintf("key-%d", k))
		if !ok {
			t.Fatal("all replicas healthy, Pick must succeed")
		}
		before[k] = rep.ID
	}

	// Kill replica 0: only its keys may move, everyone else's stay put.
	markDown(r, 0)
	moved := 0
	for k := range before {
		rep, ok := r.Pick(fmt.Sprintf("key-%d", k))
		if !ok {
			t.Fatal("two replicas still healthy, Pick must succeed")
		}
		switch {
		case before[k] == "r0":
			if rep.ID == "r0" {
				t.Fatalf("key-%d still assigned to dead replica r0", k)
			}
			moved++
		case rep.ID != before[k]:
			t.Fatalf("key-%d moved from healthy %s to %s when an unrelated replica died", k, before[k], rep.ID)
		}
	}
	if moved == 0 {
		t.Fatal("expected some keys to have lived on r0")
	}

	// Revive it: every key must return to exactly its original owner.
	markUp(r, 0)
	for k := range before {
		rep, _ := r.Pick(fmt.Sprintf("key-%d", k))
		if rep.ID != before[k] {
			t.Fatalf("key-%d on %s after recovery, want original owner %s", k, rep.ID, before[k])
		}
	}
}

func TestPickAllDown(t *testing.T) {
	r := newTestRouter(t, 2)
	markDown(r, 0)
	markDown(r, 1)
	if _, ok := r.Pick("anything"); ok {
		t.Fatal("Pick must report no healthy replica when all are down")
	}
}

func TestNewDefaults(t *testing.T) {
	r := newTestRouter(t, 1)
	defer r.Close()
	if r.opt.ProbeInterval != time.Second {
		t.Errorf("ProbeInterval default = %v, want 1s", r.opt.ProbeInterval)
	}
	if r.opt.MaxRetries != 2 {
		t.Errorf("MaxRetries default = %d, want 2", r.opt.MaxRetries)
	}
	if r.opt.MaxBodyBytes != 16<<20 {
		t.Errorf("MaxBodyBytes default = %d, want 16MiB", r.opt.MaxBodyBytes)
	}
	if r.Metrics() == nil {
		t.Error("Metrics() must return the registry")
	}
}

func TestHandlerFallbackStatus(t *testing.T) {
	r := newTestRouter(t, 1)
	defer r.Close()
	h := r.Handler()
	cases := []struct {
		method, path string
		want         int
	}{
		{"GET", "/v1/evaluate", 405},
		{"PUT", "/v1/sweep", 405},
		{"POST", "/v1/healthz", 405},
		{"POST", "/metrics", 405},
		{"GET", "/v1/nope", 404},
		{"POST", "/totally/unknown", 404},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if rec.Code != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, rec.Code, c.want)
		}
		var ae service.APIError
		if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil {
			t.Fatalf("%s %s: body is not an APIError: %v", c.method, c.path, err)
		}
		if ae.Code != service.CodeBadRequest || ae.RequestID == "" {
			t.Errorf("%s %s: APIError = %+v, want code bad_request with a request id", c.method, c.path, ae)
		}
	}
}

// TestCopyFlushSharesBuffersSafely: concurrent forwards draw their copy
// buffers from one pool, and each response still arrives byte for byte,
// whether it is longer than a buffer or not.
func TestCopyFlushSharesBuffersSafely(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := bytes.Repeat([]byte{byte('a' + g)}, 1+(g*i*7919)%(80<<10))
				rec := httptest.NewRecorder()
				if err := copyFlush(rec, bytes.NewReader(body), g%2 == 0); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), body) {
					t.Errorf("goroutine %d, response %d: %d bytes arrived, want %d", g, i, rec.Body.Len(), len(body))
					return
				}
			}
		}()
	}
	wg.Wait()
}
