package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"net/http"
)

// Stable machine-readable error codes of the v1 API. Every non-2xx
// response body — from ccserved and from ccrouter alike — is an
// APIError carrying exactly one of these.
const (
	// CodeBadRequest: the request body itself is broken (malformed
	// JSON, unknown fields, trailing data, oversized body).
	CodeBadRequest = "bad_request"
	// CodeInvalidSpec: the body parsed but the spec it carries is
	// semantically invalid (validation failures, unbuildable systems,
	// specs the engine rejects, such as a saturating probe rate).
	CodeInvalidSpec = "invalid_spec"
	// CodeShardUnavailable: no replica can answer for the request's
	// shard (router tier; always a 503).
	CodeShardUnavailable = "shard_unavailable"
	// CodeInternal: the service failed; the request may be fine.
	CodeInternal = "internal"
)

// APIError is the one error shape of the v1 API: a stable
// machine-readable code, a human-readable message, the request ID for
// cross-tier tracing, and optional per-field detail lines when a
// validation pass found several problems at once. It is both the body
// of every non-2xx JSON response and the "error" payload of in-band
// NDJSON error frames, at the service and at the router.
type APIError struct {
	Code      string   `json:"code"`
	Message   string   `json:"message"`
	RequestID string   `json:"requestId,omitempty"`
	Details   []string `json:"details,omitempty"`
}

// Error makes APIError usable as a Go error (the router surfaces
// upstream envelopes this way).
func (e *APIError) Error() string { return e.Message }

// NewRequestID mints a 16-hex-digit random request ID. The middleware
// calls it for requests that arrive without an X-Request-ID header;
// ccrouter calls it before forwarding so both tiers log the same ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; serve a
		// fixed marker rather than taking the request down with it.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// RequestIDHeader is the end-to-end tracing header: generated (or
// accepted) at whichever tier sees the request first, echoed on every
// response and every error payload, and forwarded by ccrouter.
const RequestIDHeader = "X-Request-Id"

// ShardHeader names the replica that answered, set by a replica that
// knows its shard ID and passed through by the router.
const ShardHeader = "X-Shard"

type ctxKey int

const ctxKeyRequestID ctxKey = 0

// WithRequestID attaches a request ID to ctx; the NDJSON error frames
// and APIError bodies read it back via RequestIDFrom.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRequestID, id)
}

// RequestIDFrom returns the request ID attached to ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// requestError is a failure the request caused, tagged with its
// APIError code. The rule is the same on every surface: a document that
// does not decode (malformed JSON, unknown field, wrong type, trailing
// data, unreadable body) is bad_request; one that decodes but fails
// validation, building or the engine's own spec checks is invalid_spec.
// Any untagged error — a cancelled context, a service fault — is
// internal.
type requestError struct {
	code string
	err  error
}

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

func badRequest(err error) error  { return &requestError{code: CodeBadRequest, err: err} }
func invalidSpec(err error) error { return &requestError{code: CodeInvalidSpec, err: err} }

// statusFor maps an error to its HTTP status: 400 for a failure the
// request caused, 500 for the service's own.
func statusFor(err error) int {
	var re *requestError
	if errors.As(err, &re) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// apiErrorFor shapes err into the wire envelope, with the code its
// requestError tag carries and internal for anything untagged.
func apiErrorFor(requestID string, err error) APIError {
	code := CodeInternal
	var re *requestError
	if errors.As(err, &re) {
		code = re.code
	}
	ae := APIError{Code: code, Message: err.Error(), RequestID: requestID}
	if ms := leafMessages(err); len(ms) > 1 {
		ae.Details = ms
	}
	return ae
}

// leafMessages unwraps err looking for an errors.Join aggregate; a
// multi-error validation failure reports each leaf as one detail line.
func leafMessages(err error) []string {
	for err != nil {
		if m, ok := err.(interface{ Unwrap() []error }); ok {
			var out []string
			for _, e := range m.Unwrap() {
				out = append(out, e.Error())
			}
			return out
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			break
		}
		err = u.Unwrap()
	}
	return nil
}
