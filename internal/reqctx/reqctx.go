// Package reqctx is the request-identity layer of the serving path:
// server-generated request IDs plus W3C Trace Context (traceparent)
// ingest and propagation. It exists so one slow or failed request can be
// correlated across every observability surface — the access log, the
// RED histograms' exemplar annotations, the /debug/requests capture
// ring, and whatever upstream tracing system the caller participates in.
//
// The parsing contract is deliberately asymmetric: rendering always
// produces a spec-conformant header, while ingest is strict and
// *degrades* — any malformed, oversized, or hostile traceparent yields
// (TraceContext{}, false) and the server mints a fresh root context.
// A bad header must never surface as a 5xx (see FuzzParseTraceparent
// and the hostile-header regression tests).
package reqctx

import (
	"crypto/rand"
	"encoding/hex"
)

// TraceparentHeader is the W3C Trace Context request/response header
// name carrying "version-traceid-parentid-flags".
const TraceparentHeader = "traceparent"

// maxTraceparentLen bounds the header length ParseTraceparent even
// looks at. The version-00 form is exactly 55 bytes; future versions
// may append fields, but anything past this cap is hostile or corrupt,
// not forward-compatible.
const maxTraceparentLen = 128

// version00Len is the exact length of a version-00 traceparent:
// "00-" + 32 + "-" + 16 + "-" + 2.
const version00Len = 55

// TraceContext is one parsed or generated trace-context triple. The
// zero value is "no context"; Valid reports usability.
type TraceContext struct {
	// TraceID is the 16-byte trace identifier as 32 lowercase hex digits.
	TraceID string
	// SpanID is the 8-byte span (parent) identifier as 16 lowercase hex
	// digits.
	SpanID string
	// Flags is the 2-hex-digit trace-flags field (bit 0 = sampled).
	Flags string
}

// Valid reports whether the context carries a usable (non-zero) trace
// and span ID.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" && tc.SpanID != "" }

// String renders the context as a version-00 traceparent header value,
// or "" for the zero context.
func (tc TraceContext) String() string {
	if !tc.Valid() {
		return ""
	}
	flags := tc.Flags
	if flags == "" {
		flags = "01"
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-" + flags
}

// Child returns a context that continues tc's trace under a fresh span
// ID — what a server echoes downstream (and back to the caller) so the
// hop is distinguishable from its parent. The zero context yields a
// fresh root context.
func (tc TraceContext) Child() TraceContext {
	if !tc.Valid() {
		return New()
	}
	return TraceContext{TraceID: tc.TraceID, SpanID: randHex(8), Flags: tc.Flags}
}

// New mints a fresh root trace context (random trace and span IDs,
// sampled flag set) for requests that arrived without a usable
// traceparent.
func New() TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8), Flags: "01"}
}

// ParseTraceparent parses an inbound traceparent header value. It
// accepts the version-00 form (and forward-compatibly, any hex version
// other than the invalid "ff" whose first four fields match), requiring
// lowercase hex throughout per the spec, and rejects all-zero trace or
// span IDs. ok=false means the caller should mint a fresh context; a
// hostile header can never produce an error, only a degrade.
func ParseTraceparent(v string) (tc TraceContext, ok bool) {
	if len(v) < version00Len || len(v) > maxTraceparentLen {
		return TraceContext{}, false
	}
	// Fixed field layout: vv-tttttttttttttttttttttttttttttttt-pppppppppppppppp-ff
	if v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return TraceContext{}, false
	}
	ver, traceID, spanID, flags := v[0:2], v[3:35], v[36:52], v[53:55]
	if !isLowerHex(ver) || !isLowerHex(traceID) || !isLowerHex(spanID) || !isLowerHex(flags) {
		return TraceContext{}, false
	}
	if ver == "ff" {
		return TraceContext{}, false // explicitly invalid per the spec
	}
	if ver == "00" && len(v) != version00Len {
		return TraceContext{}, false // version 00 has no extra fields
	}
	if len(v) > version00Len && v[55] != '-' {
		return TraceContext{}, false // future versions separate extra fields with '-'
	}
	if allZeroHex(traceID) || allZeroHex(spanID) {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: traceID, SpanID: spanID, Flags: flags}, true
}

// NewRequestID mints a server request ID: 16 lowercase hex digits,
// prefixed to keep it visually distinct from span IDs in mixed logs.
func NewRequestID() string { return "req-" + randHex(8) }

// randHex returns 2n lowercase hex digits from crypto/rand, re-drawing
// on the (astronomically unlikely) all-zero value so generated IDs are
// always spec-valid.
func randHex(n int) string {
	for {
		b := make([]byte, n)
		if _, err := rand.Read(b); err != nil {
			// crypto/rand never fails on supported platforms; if it somehow
			// does, an all-"1" ID beats panicking in a request path.
			for i := range b {
				b[i] = 0x11
			}
		}
		s := hex.EncodeToString(b)
		if !allZeroHex(s) {
			return s
		}
	}
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZeroHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
