package reqtrace

import (
	"encoding/hex"
	"fmt"
)

// Header is the W3C Trace Context request header carrying the trace
// identity across tiers: ccrouter mints it (or adopts the client's) and
// forwards it to the replica alongside X-Request-Id; an unfronted
// ccserved mints it itself.
const Header = "traceparent"

// FlagSampled is the traceparent sampled flag: the minting tier's
// sampling decision, honored verbatim downstream so one request is
// either traced at every tier or at none.
const FlagSampled = 0x01

// TraceID is the 16-byte W3C trace id shared by every span of one
// end-to-end request, across processes.
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String returns the 32-digit lowercase hex form.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID is the 8-byte W3C parent-id (the root span of the minting
// tier).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String returns the 16-digit lowercase hex form.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// TraceContext is one parsed traceparent value.
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Sampled reports the sampled flag.
func (tc TraceContext) Sampled() bool { return tc.Flags&FlagSampled != 0 }

// String formats the context as a version-00 traceparent header value:
// 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>.
func (tc TraceContext) String() string {
	b := make([]byte, 0, 55)
	b = append(b, '0', '0', '-')
	b = hex.AppendEncode(b, tc.TraceID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, tc.SpanID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, []byte{tc.Flags})
	return string(b)
}

// ParseTraceparent parses a traceparent header value. Per the W3C
// spec it accepts any known-length version except the reserved "ff",
// requires lowercase hex throughout, and rejects all-zero trace and
// parent ids. The error describes the first violation found.
func ParseTraceparent(s string) (TraceContext, error) {
	var tc TraceContext
	// version-00 layout: 2+1+32+1+16+1+2 = 55 bytes. Higher versions may
	// append fields after the flags; parse the known prefix and require a
	// dash separator if anything follows.
	if len(s) < 55 {
		return tc, fmt.Errorf("reqtrace: traceparent too short (%d bytes, want at least 55)", len(s))
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tc, fmt.Errorf("reqtrace: traceparent has misplaced separators")
	}
	ver, ok := parseHexLower(s[0:2])
	if !ok {
		return tc, fmt.Errorf("reqtrace: traceparent version %q is not lowercase hex", s[0:2])
	}
	if ver[0] == 0xff {
		return tc, fmt.Errorf("reqtrace: traceparent version ff is reserved")
	}
	if ver[0] == 0 && len(s) != 55 {
		return tc, fmt.Errorf("reqtrace: version-00 traceparent must be exactly 55 bytes, got %d", len(s))
	}
	if ver[0] != 0 && len(s) > 55 && s[55] != '-' {
		return tc, fmt.Errorf("reqtrace: traceparent trailing fields must be dash-separated")
	}
	tid, ok := parseHexLower(s[3:35])
	if !ok {
		return tc, fmt.Errorf("reqtrace: trace-id %q is not lowercase hex", s[3:35])
	}
	sid, ok := parseHexLower(s[36:52])
	if !ok {
		return tc, fmt.Errorf("reqtrace: parent-id %q is not lowercase hex", s[36:52])
	}
	flags, ok := parseHexLower(s[53:55])
	if !ok {
		return tc, fmt.Errorf("reqtrace: flags %q are not lowercase hex", s[53:55])
	}
	copy(tc.TraceID[:], tid)
	copy(tc.SpanID[:], sid)
	tc.Flags = flags[0]
	if tc.TraceID.IsZero() {
		return TraceContext{}, fmt.Errorf("reqtrace: all-zero trace-id is invalid")
	}
	if tc.SpanID.IsZero() {
		return TraceContext{}, fmt.Errorf("reqtrace: all-zero parent-id is invalid")
	}
	return tc, nil
}

// parseHexLower decodes s, additionally rejecting the uppercase digits
// encoding/hex accepts (the spec requires lowercase).
func parseHexLower(s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return nil, false
		}
	}
	b, err := hex.DecodeString(s)
	return b, err == nil
}
