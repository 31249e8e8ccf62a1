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

// BatchRequest is the body of POST /v1/batch (and the document `ccscen
// batch` reads): an ordered list of heterogeneous work items. Results
// stream back as NDJSON in item order — one BatchItemLine ("progress"
// frame) per item, then one terminal ResultLine carrying the
// batch.Summary.
type BatchRequest struct {
	Items []batch.Item `json:"items"`
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
	if len(req.Items) > batch.MaxItems {
		return nil, fmt.Errorf("items: %d items exceed the %d-item limit", len(req.Items), batch.MaxItems)
	}
	return &req, nil
}

// RunBatch shards the items across the server's worker pool and streams
// one NDJSON "progress" frame per item (in item order, each line
// written as soon as its item — and all earlier ones — complete)
// followed by a terminal "result" frame carrying the summary, flushing
// after every line when w is an http.Flusher. Each item consults the
// canonical-spec result cache exactly like its single-request endpoint.
// Cancelling ctx (a streaming client hanging up) stops the batch: items
// not yet started never run, items already computing finish (the model
// evaluation itself is not interruptible) and are discarded. The error
// reports why the stream ended early, while per-item failures are
// reported inline — as APIError payloads on their progress frames — and
// do not abort the batch.
func (s *Server) RunBatch(ctx context.Context, items []batch.Item, w io.Writer) (batch.Summary, error) {
	s.batches.Add(1)
	s.batchItems.Add(uint64(len(items)))
	st, done := s.newStream(ctx, "batch", w)
	defer done()
	// A sampled trace sees each item twice: a "queue" span for the wait
	// between batch start and worker pickup, and an "item" span for the
	// execution itself (whose cache/compute spans land inline via the
	// shared per-kind paths). Large batches overflow the per-trace span
	// cap; the exported droppedSpans marker says so.
	exec := s.exec
	if tr := reqtrace.FromContext(ctx); tr.Sampled() {
		batchStart := time.Now()
		exec = func(ctx context.Context, index int, it batch.Item) batch.Outcome {
			pickup := time.Now()
			tr.RecordSpan("queue", batchStart, pickup.Sub(batchStart)).
				Attr(reqtrace.Int("index", int64(index)))
			o := s.exec(ctx, index, it)
			tr.RecordSpan("item", pickup, time.Since(pickup)).
				Attr(reqtrace.Int("index", int64(index)), reqtrace.String("kind", it.Kind))
			return o
		}
	}
	eng := &batch.Engine{Workers: s.workers(), Exec: exec}
	sum, err := eng.Run(ctx, items, func(o batch.Outcome) error {
		line := BatchItemLine{
			Kind:     FrameProgress,
			Index:    o.Index,
			ID:       o.ID,
			ItemKind: o.Kind,
			Cached:   o.Cached,
			Key:      o.Key,
			Seconds:  o.Elapsed.Seconds(),
			Result:   o.Payload,
		}
		if o.Err != nil {
			ae := apiErrorFor(st.reqID, o.Err)
			line.Error = &ae
		}
		// An emit failure is the client hanging up mid-stream: abort the
		// batch cleanly (the engine stops scheduling new items).
		return st.emit(line)
	})
	if err != nil {
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
// in the Outcome, prefixed with the item's index; the batch itself
// never fails on one item.
func (s *Server) execBatchItem(ctx context.Context, index int, it batch.Item) batch.Outcome {
	payload, key, class, err := s.answerItem(ctx, it)
	if err != nil {
		s.failures.Add(1)
		return batch.Outcome{Err: fmt.Errorf("item %d: %w", index, err)}
	}
	return batch.Outcome{Payload: payload, Key: string(key), Cached: cachedClass(class)}
}

// answerItem looks the item's kind up in the table and runs the row.
func (s *Server) answerItem(ctx context.Context, it batch.Item) ([]byte, canon.Key, string, error) {
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
