package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/ccnet/ccnet/internal/batch"
	"github.com/ccnet/ccnet/internal/canon"
	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/scenario"
)

// maxBatchBytes bounds a whole batch request body; individual items are
// small (the per-request limit is maxBodyBytes) but a batch carries many.
const maxBatchBytes = 16 << 20

// maxBatchItems bounds one batch; a request this size streams for a
// while but cannot exhaust the server (each item is itself bounded by
// the body limits).
const maxBatchItems = 10000

// BatchRequest is the body of POST /v1/batch (and the document `ccscen
// batch` reads): an ordered list of heterogeneous work items. Results
// stream back as NDJSON in item order — one BatchItemLine ("progress"
// frame) per item, then one terminal ResultLine carrying the
// BatchSummary.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItem is one unit of batch work: a kind discriminator and the
// kind's own request document, carried opaquely.
type BatchItem struct {
	// ID is an optional client-chosen label echoed in the item's result
	// line; items are always also identified by index.
	ID string `json:"id,omitempty"`
	// Kind names the endpoint-table row that answers the item:
	// "evaluate", "sweep", "campaign", "performability" or "fleetsim".
	Kind string `json:"kind"`
	// Spec is the kind's request body, verbatim: an evaluate/sweep
	// request object or a full scenario spec.
	Spec json.RawMessage `json:"spec"`
}

// BatchSummary is the terminal accounting of one batch run. CacheHits
// and CacheMisses partition the successful items (failed items consult
// no cache), so a client can verify spec-dedup across the batch itself
// — the per-process /v1/stats counters cannot distinguish one batch's
// hits from another's.
type BatchSummary struct {
	Items       int `json:"items"`
	Emitted     int `json:"emitted"`
	Succeeded   int `json:"succeeded"`
	Failed      int `json:"failed"`
	CacheHits   int `json:"cacheHits"`
	CacheMisses int `json:"cacheMisses"`
	// HitRate is CacheHits/(CacheHits+CacheMisses); 0 when no item
	// succeeded.
	HitRate  float64 `json:"cacheHitRate"`
	Canceled bool    `json:"canceled"`
	WallSecs float64 `json:"wallSeconds"`
}

// batchOutcome is one executed item.
type batchOutcome struct {
	payload json.RawMessage // result document; nil when err is set
	key     string          // canonical cache key
	cached  bool            // answered from cache or coalesced
	err     error
	elapsed time.Duration
}

// ParseBatch decodes one batch request document, rejecting unknown
// fields and trailing data, and checks the item envelope (kinds are
// validated per item at execution so one bad item fails alone, but an
// oversized batch fails the whole request). An empty input stream, an
// empty object and an empty items list all decode to a zero-item batch:
// RunBatch answers it with a valid zero-item summary line rather than an
// error, so generated pipelines that happen to produce no work degrade
// gracefully.
func ParseBatch(r io.Reader) (*BatchRequest, error) {
	var req BatchRequest
	if err := scenario.Decode(r, &req, "batch"); err != nil {
		if errors.Is(err, io.EOF) {
			return &BatchRequest{}, nil
		}
		return nil, err
	}
	if len(req.Items) > maxBatchItems {
		return nil, fmt.Errorf("items: %d items exceed the %d-item limit", len(req.Items), maxBatchItems)
	}
	return &req, nil
}

// RunBatch spreads the items over the server's parallel loop and streams
// one NDJSON "progress" frame per item (in item order, each line
// written as soon as its item — and all earlier ones — complete)
// followed by a terminal "result" frame carrying the summary, flushing
// after every line when w is an http.Flusher. Each item consults the
// canonical-spec result cache exactly like its single-request endpoint.
// Cancelling ctx or a failed write (a streaming client hanging up) stops
// the batch: items not yet started never run, and items already
// computing see the cancel (or finish, where the evaluation itself is
// not interruptible) and are discarded. The error reports why the
// stream ended early, while per-item failures are reported inline — as
// APIError payloads on their progress frames — and do not abort the
// batch.
func (s *Server) RunBatch(ctx context.Context, items []BatchItem, w io.Writer) (BatchSummary, error) {
	start := time.Now()
	s.batches.Add(1)
	s.batchItems.Add(uint64(len(items)))
	st, done := s.newStream(ctx, "batch", w)
	defer done()
	exec := s.exec
	if exec == nil {
		exec = s.execBatchItem
	}
	// A sampled trace sees each item twice: a "queue" span for the wait
	// between batch start and pickup, and an "item" span for the
	// execution itself (whose cache/compute spans land inline via the
	// shared per-kind paths). Large batches overflow the per-trace span
	// cap; the exported droppedSpans marker says so.
	tr := reqtrace.FromContext(ctx)
	// A derived context lets a failed write stop the items already
	// computing the same way the caller's cancellation does: each one's
	// flight wait returns at once, and a flight nobody else waits on is
	// cancelled.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	outcomes := make([]batchOutcome, len(items))
	sum := BatchSummary{Items: len(items)}
	err := batch.Run(ctx, len(items), 0, func(_, i int) {
		s.m.busyWorkers.Add(1)
		defer s.m.busyWorkers.Add(-1)
		t0 := time.Now()
		if tr.Sampled() {
			tr.RecordSpan("queue", start, t0.Sub(start)).Attr(reqtrace.Int("index", int64(i)))
		}
		outcomes[i] = exec(ctx, i, items[i])
		outcomes[i].elapsed = time.Since(t0)
		if tr.Sampled() {
			tr.RecordSpan("item", t0, outcomes[i].elapsed).
				Attr(reqtrace.Int("index", int64(i)), reqtrace.String("kind", items[i].Kind))
		}
	}, func(i int) error {
		o := &outcomes[i]
		line := BatchItemLine{
			Kind:     FrameProgress,
			Index:    i,
			ID:       items[i].ID,
			ItemKind: items[i].Kind,
			Cached:   o.cached,
			Key:      o.key,
			Seconds:  o.elapsed.Seconds(),
			Result:   o.payload,
		}
		if o.err != nil {
			ae := apiErrorFor(st.reqID, o.err)
			line.Error = &ae
		}
		// An emit failure is the client hanging up mid-stream: abort the
		// batch cleanly (the loop stops handing out items, and the items
		// in flight see the cancel).
		if err := st.emit(line); err != nil {
			err = fmt.Errorf("batch: emit item %d: %w", i, err)
			cancel(err)
			return err
		}
		sum.Emitted++
		switch {
		case o.err != nil:
			sum.Failed++
		case o.cached:
			sum.CacheHits++
		default:
			sum.CacheMisses++
		}
		return nil
	})
	sum.Succeeded = sum.CacheHits + sum.CacheMisses
	if sum.Succeeded > 0 {
		sum.HitRate = float64(sum.CacheHits) / float64(sum.Succeeded)
	}
	sum.WallSecs = time.Since(start).Seconds()
	if err != nil {
		sum.Canceled = true
		return sum, err
	}
	payload, err := json.Marshal(sum)
	if err != nil {
		return sum, err
	}
	return sum, st.emitResult(false, "", payload)
}

// execBatchItem answers one item through the table row its kind names,
// under the batch's context: the same parse, key, cache and flight as
// the row's own endpoint, without progress lines. Item errors come back
// in the outcome, prefixed with the item's index; the batch itself
// never fails on one item.
func (s *Server) execBatchItem(ctx context.Context, index int, it BatchItem) batchOutcome {
	payload, key, class, err := s.answerItem(ctx, it)
	if err != nil {
		s.failures.Add(1)
		return batchOutcome{err: fmt.Errorf("item %d: %w", index, err)}
	}
	return batchOutcome{payload: payload, key: string(key), cached: cachedClass(class)}
}

// answerItem looks the item's kind up in the table and runs the row.
func (s *Server) answerItem(ctx context.Context, it BatchItem) ([]byte, canon.Key, string, error) {
	if len(it.Spec) == 0 {
		return nil, "", "", invalidSpec(errors.New("spec: required"))
	}
	row := rowIndex(it.Kind)
	if row < 0 || !endpoints[row].batch {
		var kinds []string
		for i := range endpoints {
			if endpoints[i].batch {
				kinds = append(kinds, endpoints[i].name)
			}
		}
		return nil, "", "", invalidSpec(fmt.Errorf("kind: unknown kind %q (valid: %s)", it.Kind, strings.Join(kinds, ", ")))
	}
	req, err := parse(ctx, &endpoints[row], it.Spec, "spec")
	if err != nil {
		return nil, "", "", err
	}
	return s.answer(ctx, req, noProgress)
}

// handleBatch serves POST /v1/batch: the request is decoded up front
// (any envelope problem is a plain 400), then results stream back
// incrementally as chunked NDJSON. A client that disconnects stops the
// remaining (not yet started) work via the request context.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBytes)
	req, err := ParseBatch(r.Body)
	if err != nil {
		s.fail(w, r, badRequest(err))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Streaming has begun: errors from here on (client gone, encode
	// failure) cannot change the status; the absent summary line tells
	// the client the stream was truncated.
	_, _ = s.RunBatch(r.Context(), req.Items, w)
}
