package cncount_test

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// testSupport lists the internal packages only tests import, each with the
// reason it stays.
var testSupport = map[string]string{
	"cncount/internal/chaos":  "the fault injector the robustness tests drive",
	"cncount/internal/verify": "the reference counter every count is checked against",
}

// TestNoOrphanPackages fails on any internal package that no command, no
// example and not the cncount package reaches: code that nothing runs is
// deleted rather than kept beside the code that does.
func TestNoOrphanPackages(t *testing.T) {
	goList := func(args ...string) []string {
		t.Helper()
		var stderr bytes.Buffer
		cmd := exec.Command("go", append([]string{"list"}, args...)...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return strings.Fields(string(out))
	}
	reached := map[string]bool{}
	for _, pkg := range goList("-deps", ".", "./cmd/...", "./examples/...") {
		reached[pkg] = true
	}
	for _, pkg := range goList("./internal/...") {
		if !reached[pkg] && testSupport[pkg] == "" {
			t.Errorf("%s: no command, example or the cncount package imports it", pkg)
		}
	}
}
