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
	// semantically invalid (validation failures, unbuildable systems).
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

// statusFor maps a compute error to its HTTP status: request-caused
// failures (badRequest-tagged anywhere in the chain) are 400, anything
// else is the service's fault.
func statusFor(err error) int {
	var br *badRequestError
	if errors.As(err, &br) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// apiErrorFor shapes err into the wire envelope for status. The code is
// derived, not chosen ad hoc: 400s split into invalid_spec (the spec
// failed validation — badRequest-tagged) versus bad_request (the body
// never parsed), 503 is the router's shard_unavailable, and 5xx is
// internal.
func apiErrorFor(status int, requestID string, err error) APIError {
	code := CodeInternal
	switch {
	case status == http.StatusServiceUnavailable:
		code = CodeShardUnavailable
	case status == http.StatusBadRequest:
		var br *badRequestError
		if errors.As(err, &br) {
			code = CodeInvalidSpec
		} else {
			code = CodeBadRequest
		}
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
