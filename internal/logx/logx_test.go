package logx

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNewTextDefault(t *testing.T) {
	for _, format := range []string{"", "text"} {
		var b strings.Builder
		l, err := New(&b, format, "cnc")
		if err != nil {
			t.Fatalf("format %q: %v", format, err)
		}
		l.Info("cell started", "cell", "WI/BMP/w4")
		out := b.String()
		for _, want := range []string{"msg=", "cell started", "component=cnc", "cell=WI/BMP/w4"} {
			if !strings.Contains(out, want) {
				t.Errorf("format %q output lacks %q: %s", format, want, out)
			}
		}
	}
}

func TestNewJSON(t *testing.T) {
	var b strings.Builder
	l, err := New(&b, "json", "experiments")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("experiment done", "ns_per_edge", 42.5)
	var rec map[string]any
	if err := json.Unmarshal([]byte(b.String()), &rec); err != nil {
		t.Fatalf("json mode emitted non-JSON: %v\n%s", err, b.String())
	}
	if rec["msg"] != "experiment done" || rec["component"] != "experiments" || rec["ns_per_edge"] != 42.5 {
		t.Errorf("record = %v", rec)
	}
}

func TestNewRejectsUnknownFormat(t *testing.T) {
	if _, err := New(&strings.Builder{}, "yaml", "cnc"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestPrintfAdapter(t *testing.T) {
	var b strings.Builder
	l, err := New(&b, "json", "cnc")
	if err != nil {
		t.Fatal(err)
	}
	Printf(l)("obs: serve error on %s: %v", "addr", "boom")
	var rec map[string]any
	if err := json.Unmarshal([]byte(b.String()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["msg"] != "obs: serve error on addr: boom" {
		t.Errorf("msg = %v", rec["msg"])
	}
}
