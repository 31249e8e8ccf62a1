package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// smallBatch mixes all three item kinds against the small preset; the
// campaign item is analysis-only so the test stays fast.
const smallBatch = `{"items": [
	{"id": "ev", "kind": "evaluate", "spec": {
		"system": {"preset": "small"}, "message": {"flits": 16, "flitBytes": 128}, "lambda": 1e-4}},
	{"id": "sw", "kind": "sweep", "spec": {
		"system": {"preset": "small"}, "message": {"flits": 16, "flitBytes": 128},
		"lambda": {"min": 1e-5, "max": 2e-4, "points": 5}}},
	{"id": "ca", "kind": "campaign", "spec": {
		"name": "batch-camp", "system": {"preset": "small"},
		"traffic": {"flits": 16, "flitBytes": [128], "lambda": {"max": 2e-4, "points": 4}},
		"engines": {"simulation": false}, "model": {}}}
]}`

// readLines splits an NDJSON body into decoded frames: per-item
// "progress" lines and the terminal "result" line's batch summary.
func readLines(t *testing.T, body string) (results []BatchItemLine, summary *BatchSummary) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch probe.Kind {
		case FrameProgress:
			var r BatchItemLine
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		case FrameResult:
			var r ResultLine
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			var s BatchSummary
			if err := json.Unmarshal(r.Result, &s); err != nil {
				t.Fatal(err)
			}
			summary = &s
		default:
			t.Fatalf("unknown frame kind %q", probe.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return results, summary
}

// TestBatchMixedKindsInOrder drives a mixed evaluate/sweep/campaign
// batch through the real executor and checks ordering, identity and the
// summary accounting.
func TestBatchMixedKindsInOrder(t *testing.T) {
	srv := New(Options{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(smallBatch)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	results, summary := readLines(t, rec.Body.String())
	if len(results) != 3 || summary == nil {
		t.Fatalf("got %d result lines, summary %v", len(results), summary)
	}
	wantIDs := []string{"ev", "sw", "ca"}
	wantKinds := []string{"evaluate", "sweep", "campaign"}
	for i, r := range results {
		if r.Index != i || r.ID != wantIDs[i] || r.ItemKind != wantKinds[i] {
			t.Fatalf("line %d out of order or mislabeled: %+v", i, r)
		}
		if r.Error != nil || len(r.Result) == 0 || r.Key == "" {
			t.Fatalf("line %d incomplete: %+v", i, r)
		}
		if r.Cached {
			t.Fatalf("line %d cached on a cold server", i)
		}
	}
	if summary.Items != 3 || summary.Succeeded != 3 || summary.Failed != 0 || summary.CacheHits != 0 {
		t.Fatalf("summary %+v", *summary)
	}
	if summary.WallSecs <= 0 {
		t.Fatalf("summary wall time %v", summary.WallSecs)
	}

	// The per-kind results decode as their endpoint documents.
	var ev EvaluateResult
	if err := json.Unmarshal(results[0].Result, &ev); err != nil || ev.System.Nodes == 0 {
		t.Fatalf("evaluate result %s: %v", results[0].Result, err)
	}
	var sw SweepResult
	if err := json.Unmarshal(results[1].Result, &sw); err != nil || len(sw.Points) != 5 {
		t.Fatalf("sweep result %s: %v", results[1].Result, err)
	}
	var ca CampaignResult
	if err := json.Unmarshal(results[2].Result, &ca); err != nil || ca.Name != "batch-camp" {
		t.Fatalf("campaign result %s: %v", results[2].Result, err)
	}
}

// TestBatchRepeatHitsCache proves a repeated batch answers every item
// from the canonical-spec cache.
func TestBatchRepeatHitsCache(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	for round := 0; round < 2; round++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(smallBatch)))
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, rec.Code, rec.Body.String())
		}
		results, summary := readLines(t, rec.Body.String())
		for i, r := range results {
			if want := round == 1; r.Cached != want {
				t.Fatalf("round %d line %d cached=%v, want %v", round, i, r.Cached, want)
			}
		}
		if round == 0 && (summary.CacheMisses != 3 || summary.CacheHits != 0) {
			t.Fatalf("cold summary %+v", *summary)
		}
		if round == 1 && (summary.CacheHits != 3 || summary.CacheMisses != 0 || summary.HitRate != 1.0) {
			t.Fatalf("repeat summary %+v", *summary)
		}
	}
	if got := srv.Computes(); got != 3 {
		t.Fatalf("computed %d times across both rounds, want 3", got)
	}
	// The single-request endpoints share the same cache entries.
	rec := httptest.NewRecorder()
	body := `{"system": {"preset": "small"}, "message": {"flits": 16, "flitBytes": 128}, "lambda": 1e-4}`
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("single evaluate after batch: %d, X-Cache=%q", rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestBatchItemErrorsDoNotAbort proves one bad item fails alone, with
// its field-path error inline, while the rest of the batch completes.
func TestBatchItemErrorsDoNotAbort(t *testing.T) {
	body := `{"items": [
		{"kind": "evaluate", "spec": {"system": {"preset": "small"}, "message": {"flits": 16, "flitBytes": 128}, "lambda": 1e-4}},
		{"kind": "evaluate", "spec": {"system": {"preset": "small"}, "message": {"flits": -1, "flitBytes": 128}, "lambda": 1e-4}},
		{"kind": "frobnicate", "spec": {}},
		{"kind": "campaign", "spec": {"name": "x", "system": {"preset": "small"}, "traffic": {"flits": 0, "flitBytes": [128], "lambda": {"max": 1e-4, "points": 3}}, "engines": {}, "model": {}}}
	]}`
	srv := New(Options{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
	results, summary := readLines(t, rec.Body.String())
	if len(results) != 4 || summary == nil {
		t.Fatalf("got %d lines, summary %v", len(results), summary)
	}
	if results[0].Error != nil {
		t.Fatalf("good item failed: %s", results[0].Error.Message)
	}
	for i, want := range map[int]string{
		1: "message.flits: must be positive",
		2: `unknown kind "frobnicate"`,
		3: "traffic.flits: must be positive",
	} {
		if results[i].Error == nil || !strings.Contains(results[i].Error.Message, want) {
			t.Errorf("item %d error %+v does not contain %q", i, results[i].Error, want)
		}
	}
	// Item errors carry the full APIError envelope: a stable code and
	// the request ID the response headers echo.
	for _, i := range []int{1, 2, 3} {
		if results[i].Error.Code != CodeInvalidSpec {
			t.Errorf("item %d error code %q, want %q", i, results[i].Error.Code, CodeInvalidSpec)
		}
		if results[i].Error.RequestID == "" {
			t.Errorf("item %d error has no request ID", i)
		}
	}
	if summary.Succeeded != 1 || summary.Failed != 3 {
		t.Fatalf("summary %+v", *summary)
	}
}

// TestBatchItemErrorsAreCounted proves per-item failures are emitted
// and counted without stopping the batch, and that failed items stay
// out of the cache accounting: the hit rate covers the successful items
// only.
func TestBatchItemErrorsAreCounted(t *testing.T) {
	srv := New(Options{})
	srv.exec = func(_ context.Context, i int, _ BatchItem) batchOutcome {
		if i%3 == 0 {
			return batchOutcome{err: invalidSpec(fmt.Errorf("item %d bad", i))}
		}
		return batchOutcome{payload: json.RawMessage(`1`), cached: true}
	}
	items := make([]BatchItem, 9)
	for i := range items {
		items[i] = BatchItem{ID: fmt.Sprint("it-", i), Kind: "evaluate", Spec: json.RawMessage(`{}`)}
	}
	var out strings.Builder
	sum, err := srv.RunBatch(context.Background(), items, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Items != 9 || sum.Emitted != 9 || sum.Failed != 3 || sum.Succeeded != 6 || sum.Canceled {
		t.Fatalf("summary %+v", sum)
	}
	if sum.CacheHits != 6 || sum.CacheMisses != 0 || sum.HitRate != 1.0 {
		t.Fatalf("cache accounting %+v", sum)
	}
	results, streamed := readLines(t, out.String())
	if streamed == nil || *streamed != sum {
		t.Fatalf("streamed summary %+v, returned %+v", streamed, sum)
	}
	for i, r := range results {
		if r.Index != i || r.ID != items[i].ID || r.ItemKind != "evaluate" {
			t.Fatalf("line %d lost its identity: %+v", i, r)
		}
		if failed := i%3 == 0; (r.Error != nil) != failed || r.Cached == failed {
			t.Fatalf("line %d: error %v, cached %v", i, r.Error, r.Cached)
		}
	}
}

// TestBatchEnvelopeErrors covers whole-request failures: bad JSON,
// unknown fields and a batch over the 10,000-item cap — all plain 400s
// before any streaming begins.
func TestBatchEnvelopeErrors(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	tooMany := `{"items": [` + strings.Repeat(`{"kind": "evaluate", "spec": {}},`, maxBatchItems) +
		`{"kind": "evaluate", "spec": {}}]}`
	for name, body := range map[string]string{
		"malformed":    `{"items": [`,
		"unknownField": `{"items": [{"kind": "evaluate", "spec": {}}], "mode": "fast"}`,
		"trailing":     `{"items": [{"kind": "evaluate", "spec": {}}]} {}`,
		"tooMany":      tooMany,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}
}

// TestBatchEmptyStreamsSummary is the regression test for the empty
// batch: an empty items list, an empty object and a completely empty
// input stream must all answer 200 with exactly one valid zero-item
// summary line — not an error.
func TestBatchEmptyStreamsSummary(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	for name, body := range map[string]string{
		"emptyItems":  `{"items": []}`,
		"emptyObject": `{}`,
		"emptyStream": ``,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, want 200 (%s)", name, rec.Code, rec.Body.String())
		}
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		if len(lines) != 1 {
			t.Fatalf("%s: %d lines, want exactly one summary (%q)", name, len(lines), rec.Body.String())
		}
		var rl ResultLine
		if err := json.Unmarshal([]byte(lines[0]), &rl); err != nil {
			t.Fatalf("%s: summary line does not parse: %v", name, err)
		}
		var sum BatchSummary
		if err := json.Unmarshal(rl.Result, &sum); err != nil {
			t.Fatalf("%s: summary payload does not parse: %v", name, err)
		}
		if rl.Kind != FrameResult || sum.Items != 0 || sum.Emitted != 0 || sum.Failed != 0 || sum.Canceled {
			t.Errorf("%s: frame %+v summary %+v, want a clean zero-item summary", name, rl, sum)
		}
	}
}

// TestBatchHTTPStreamsIncrementally proves the acceptance property over
// a real HTTP connection: the first NDJSON result line reaches the
// client before the last item finishes. The last item is gated on the
// client having read the first line, so the test cannot pass unless the
// server flushes results incrementally.
func TestBatchHTTPStreamsIncrementally(t *testing.T) {
	srv := New(Options{})
	firstLineRead := make(chan struct{})
	lastFinished := make(chan struct{})
	srv.exec = func(ctx context.Context, i int, it BatchItem) batchOutcome {
		if i == 2 {
			select {
			case <-firstLineRead:
			case <-time.After(10 * time.Second):
				return batchOutcome{err: fmt.Errorf("gate timeout: first line never read")}
			}
			close(lastFinished)
		}
		return batchOutcome{payload: json.RawMessage(fmt.Sprintf(`{"item":%d}`, i))}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"items": [{"kind": "evaluate", "spec": {}}, {"kind": "evaluate", "spec": {}}, {"kind": "evaluate", "spec": {}}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	var first BatchItemLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Index != 0 {
		t.Fatalf("first line %q: %v", sc.Text(), err)
	}
	select {
	case <-lastFinished:
		t.Fatal("last item finished before the client read the first line")
	default:
	}
	close(firstLineRead) // now let the last item complete
	n := 1
	for sc.Scan() {
		n++
	}
	if n != 4 { // 3 results + summary
		t.Fatalf("stream had %d lines, want 4", n)
	}
	select {
	case <-lastFinished:
	default:
		t.Fatal("stream ended but the last item never ran")
	}
}

// TestBatchClientDisconnectCancelsWork proves a dropped streaming client
// stops in-flight work via the request context.
func TestBatchClientDisconnectCancelsWork(t *testing.T) {
	srv := New(Options{})
	sawCancel := make(chan struct{})
	srv.exec = func(ctx context.Context, i int, it BatchItem) batchOutcome {
		if i == 1 {
			<-ctx.Done() // second item outlives the client
			close(sawCancel)
			return batchOutcome{err: ctx.Err()}
		}
		return batchOutcome{payload: json.RawMessage(`{}`)}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"items": [{"kind": "evaluate", "spec": {}}, {"kind": "evaluate", "spec": {}}, {"kind": "evaluate", "spec": {}}]}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	cancel() // hang up mid-stream
	resp.Body.Close()
	select {
	case <-sawCancel:
	case <-time.After(10 * time.Second):
		t.Fatal("server never observed the client disconnect")
	}
}

// TestBatchWriteFailureCancelsInFlightWork proves a failed write stops
// the items already computing, not only those not yet started: under a
// context that is never cancelled, every item from index 2 on blocks
// until it sees the batch's own cancel, which only the failed write of
// line 1 can send. Without it RunBatch would wait on them for ever.
func TestBatchWriteFailureCancelsInFlightWork(t *testing.T) {
	procs := int64(runtime.GOMAXPROCS(0))
	srv := New(Options{})
	var started atomic.Int64
	srv.exec = func(ctx context.Context, i int, _ BatchItem) batchOutcome {
		started.Add(1)
		if i >= 2 {
			<-ctx.Done()
			return batchOutcome{err: context.Cause(ctx)}
		}
		return batchOutcome{payload: json.RawMessage(`{}`)}
	}
	items := make([]BatchItem, 64)
	for i := range items {
		items[i] = BatchItem{Kind: "evaluate", Spec: json.RawMessage(`{}`)}
	}
	type result struct {
		sum BatchSummary
		err error
	}
	ret := make(chan result, 1)
	go func() {
		// Line 0 is written, line 1 finds the pipe broken.
		sum, err := srv.RunBatch(context.Background(), items, &failAfterWriter{n: 1})
		ret <- result{sum, err}
	}()
	select {
	case r := <-ret:
		if r.err == nil || !strings.Contains(r.err.Error(), "emit item 1") {
			t.Fatalf("err = %v, want the failed write of item 1", r.err)
		}
		if !r.sum.Canceled || r.sum.Emitted != 1 {
			t.Fatalf("summary %+v, want canceled after one emitted item", r.sum)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunBatch still waits on in-flight items after a failed write")
	}
	// Indices 0 and 1, plus at most one blocked item per goroutine: the
	// loop has at most GOMAXPROCS.
	if s := started.Load(); s > 2+procs {
		t.Fatalf("%d items started at GOMAXPROCS %d, want at most %d", s, procs, 2+procs)
	}
}
