package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// optimizeSpec is a small grid search (96 raw candidates) that finishes
// in milliseconds.
const optimizeSpec = `{
	"name": "svc-opt",
	"space": {
		"ports": [4],
		"icn2Scale": [1, 1.5],
		"groups": [{"counts": [0, 4, 8], "treeLevels": [1, 2], "icn1": ["net1", "net2"]}]
	},
	"message": {"flits": 16, "flitBytes": 128},
	"constraints": {"cost": {"switchBase": 10, "linkBase": 1}},
	"search": {"maxCandidates": 1000}
}`

// postOptimize sends the spec and returns the NDJSON lines.
func postOptimize(t *testing.T, h http.Handler, body string) (int, []string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body)))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	return rec.Code, lines
}

func TestOptimizeEndpoint(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()

	code, lines := postOptimize(t, h, optimizeSpec)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, strings.Join(lines, "\n"))
	}
	last := lines[len(lines)-1]
	var frontier ResultLine
	if err := json.Unmarshal([]byte(last), &frontier); err != nil {
		t.Fatalf("terminal line %q: %v", last, err)
	}
	if frontier.Kind != FrameResult || frontier.Cached || frontier.Key == "" {
		t.Fatalf("terminal line %+v", frontier)
	}
	var rep struct {
		Method   string            `json:"method"`
		Frontier []json.RawMessage `json:"frontier"`
	}
	if err := json.Unmarshal(frontier.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Method != "grid" || len(rep.Frontier) == 0 {
		t.Fatalf("report %+v", rep)
	}
	// All preceding lines are progress updates.
	for _, l := range lines[:len(lines)-1] {
		var p OptimizeProgressLine
		if err := json.Unmarshal([]byte(l), &p); err != nil || p.Kind != FrameProgress {
			t.Fatalf("non-progress line %q (err %v)", l, err)
		}
	}

	// The repeat answers from the cache: one frontier line, same result.
	code, lines2 := postOptimize(t, h, optimizeSpec)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d", code)
	}
	if len(lines2) != 1 {
		t.Fatalf("cached repeat streamed %d lines, want 1", len(lines2))
	}
	var cached ResultLine
	if err := json.Unmarshal([]byte(lines2[0]), &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached || cached.Key != frontier.Key {
		t.Fatalf("repeat not cached: %+v", cached)
	}
	if string(cached.Result) != string(frontier.Result) {
		t.Fatal("cached frontier differs from the computed one")
	}
	if got := srv.Computes(); got != 1 {
		t.Fatalf("computed %d times across both requests, want 1", got)
	}
}

func TestOptimizeEndpointRejectsBadSpecs(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	for name, body := range map[string]string{
		"badJSON":   `{`,
		"unknown":   `{"name": "x", "bogus": 1}`,
		"noSpace":   `{"name": "x", "message": {"flits": 1, "flitBytes": 1}}`,
		"badMethod": `{"name": "x", "space": {"ports": [4], "groups": [{"treeLevels": [1]}]}, "message": {"flits": 1, "flitBytes": 1}, "search": {"method": "?"}}`,
	} {
		t.Run(name, func(t *testing.T) {
			code, lines := postOptimize(t, h, body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", code, strings.Join(lines, "\n"))
			}
		})
	}
}

// TestOptimizeCoalescesConcurrentSpecs: identical specs in flight at
// once compute one search; the late arrivals stream just the shared
// frontier line.
func TestOptimizeCoalescesConcurrentSpecs(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	const n = 4
	codes := make([]int, n)
	bodies := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(optimizeSpec)))
			codes[i], bodies[i] = rec.Code, rec.Body.String()
		}(i)
	}
	wg.Wait()
	var frontiers []string
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		lines := strings.Split(strings.TrimSpace(bodies[i]), "\n")
		last := lines[len(lines)-1]
		var f ResultLine
		if err := json.Unmarshal([]byte(last), &f); err != nil || f.Kind != FrameResult {
			t.Fatalf("request %d terminal line %q (err %v)", i, last, err)
		}
		frontiers = append(frontiers, string(f.Result))
	}
	for i := 1; i < n; i++ {
		if frontiers[i] != frontiers[0] {
			t.Fatalf("request %d frontier differs from request 0", i)
		}
	}
	// Exactly one search ran; everyone else hit the cache or coalesced.
	if got := srv.Computes(); got != 1 {
		t.Fatalf("computed %d searches for %d concurrent identical specs", got, n)
	}
}

// TestOptimizeSeedDefaultSharesCacheEntry: "seed omitted" and "seed": 1
// must hash identically.
func TestOptimizeSeedDefaultSharesCacheEntry(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	if code, _ := postOptimize(t, h, optimizeSpec); code != http.StatusOK {
		t.Fatal("first request failed")
	}
	withSeed := strings.Replace(optimizeSpec, `"name": "svc-opt",`, `"name": "svc-opt", "seed": 1,`, 1)
	code, lines := postOptimize(t, h, withSeed)
	if code != http.StatusOK {
		t.Fatal("second request failed")
	}
	if len(lines) != 1 || !strings.Contains(lines[0], `"cached":true`) {
		t.Fatalf("seed:1 did not share the seedless cache entry:\n%s", strings.Join(lines, "\n"))
	}
}
