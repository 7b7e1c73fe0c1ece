package reqctx

import (
	"strings"
	"testing"
)

const sample = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

func TestParseTraceparentValid(t *testing.T) {
	tc, ok := ParseTraceparent(sample)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) not ok", sample)
	}
	if tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("TraceID = %q", tc.TraceID)
	}
	if tc.SpanID != "00f067aa0ba902b7" {
		t.Errorf("SpanID = %q", tc.SpanID)
	}
	if tc.Flags != "01" {
		t.Errorf("Flags = %q", tc.Flags)
	}
	if !tc.Valid() {
		t.Error("parsed context not Valid")
	}
	if got := tc.String(); got != sample {
		t.Errorf("String() = %q, want %q (round trip)", got, sample)
	}
}

// TestParseTraceparentFutureVersion: a non-00 version with the same
// first four fields parses (forward compatibility), including with
// extra '-'-separated fields appended.
func TestParseTraceparentFutureVersion(t *testing.T) {
	for _, v := range []string{
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extrafield",
	} {
		if _, ok := ParseTraceparent(v); !ok {
			t.Errorf("ParseTraceparent(%q) rejected; future versions should degrade gracefully but this form is parseable", v)
		}
	}
}

// TestParseTraceparentHostile is the hostile-header regression suite:
// every malformed form must degrade to ok=false — never panic, never an
// error a handler could turn into a 5xx.
func TestParseTraceparentHostile(t *testing.T) {
	hostile := map[string]string{
		"empty":              "",
		"short":              "00-abc-def-01",
		"oversized":          sample + strings.Repeat("-padding", 64),
		"giant":              strings.Repeat("a", 1<<16),
		"bad version ff":     "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"uppercase version":  "0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"uppercase trace id": "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"non-hex trace id":   "00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",
		"non-hex span id":    "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902zz-01",
		"non-hex flags":      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
		"all-zero trace id":  "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"all-zero span id":   "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"wrong separators":   "00_4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7_01",
		"shifted fields":     "00-4bf92f3577b34da6a3ce929d0e0e473-600f067aa0ba902b7-01",
		"v00 trailing junk":  sample + "-extrafield",
		"trailing byte":      sample + "x",
		"embedded nul":       "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0\x00",
		"unicode digits":     "00-4bf92f3577b34da6a3ce929d0e0e47３６-00f067aa0ba902b7-01",
	}
	for name, v := range hostile {
		if tc, ok := ParseTraceparent(v); ok {
			t.Errorf("%s: ParseTraceparent(%q) = %+v, ok; want degrade", name, v, tc)
		}
	}
}

func TestNewAndChild(t *testing.T) {
	root := New()
	if !root.Valid() {
		t.Fatal("New() not Valid")
	}
	if _, ok := ParseTraceparent(root.String()); !ok {
		t.Fatalf("New().String() = %q does not re-parse", root.String())
	}
	child := root.Child()
	if child.TraceID != root.TraceID {
		t.Errorf("Child changed trace id: %q != %q", child.TraceID, root.TraceID)
	}
	if child.SpanID == root.SpanID {
		t.Error("Child kept the parent span id")
	}
	// The zero context's Child mints a root.
	fresh := TraceContext{}.Child()
	if !fresh.Valid() {
		t.Error("zero Child() not Valid")
	}
}

func TestNewRequestID(t *testing.T) {
	id := NewRequestID()
	if !strings.HasPrefix(id, "req-") || len(id) != len("req-")+16 {
		t.Errorf("NewRequestID() = %q, want req- + 16 hex", id)
	}
	if id == NewRequestID() {
		t.Error("two request IDs collided")
	}
}

// FuzzParseTraceparent: no input may panic, and any accepted input must
// round-trip through String back to an accepted header with the same
// IDs — the property that makes echoing a parsed context safe.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(sample)
	f.Add("")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add(strings.Repeat("0-", 64))
	f.Fuzz(func(t *testing.T, v string) {
		tc, ok := ParseTraceparent(v)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("degrade returned non-zero context %+v", tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted context not Valid: %+v", tc)
		}
		back, ok2 := ParseTraceparent(tc.String())
		if !ok2 || back.TraceID != tc.TraceID || back.SpanID != tc.SpanID {
			t.Fatalf("round trip failed: %+v -> %q -> %+v (ok=%v)", tc, tc.String(), back, ok2)
		}
	})
}
