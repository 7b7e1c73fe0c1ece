package cncount_test

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// guardedDocs are the documents TestDocsNameExistingArtifacts reads.
var guardedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// docPathRE matches a package path and an optional suffix: a file
	// extension (internal/core/count.go) or a member (internal/trace.Validate).
	docPathRE    = regexp.MustCompile(`(?:^|[^\w.-])((?:cmd|internal|examples)(?:/[\w-]+)+)(\.\w+)?`)
	benchFileRE  = regexp.MustCompile(`BENCH_[\w-]+\.json`)
	testNameRE   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	testDeclRE   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	inlineCodeRE = regexp.MustCompile("`([^`]+)`")
	makeCallRE   = regexp.MustCompile(`^\s*make\s+([\w-]+)`)
	makeTargetRE = regexp.MustCompile(`(?m)^([\w-]+):`)
)

// TestDocsNameExistingArtifacts fails when a guarded document names a
// cmd/, internal/ or examples/ path, a BENCH_*.json file, a make target
// or a Go test, benchmark or fuzz target that the tree does not have, so
// the docs cannot outlive the code they describe. Make targets count only
// in code (fenced blocks and inline code spans), where prose cannot
// collide with them.
func TestDocsNameExistingArtifacts(t *testing.T) {
	benchFiles := map[string]bool{}
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		switch {
		case d.IsDir():
			if path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
		case benchFileRE.FindString(name) == name:
			benchFiles[name] = true
		case strings.HasSuffix(name, "_test.go"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testDeclRE.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetRE.FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}

	for _, doc := range guardedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range docPathRE.FindAllStringSubmatch(line, -1) {
				if !exists(m[1]+m[2]) && !exists(m[1]) {
					t.Errorf("%s:%d: %s does not exist", doc, i+1, m[1]+m[2])
				}
			}
			for _, name := range benchFileRE.FindAllString(line, -1) {
				if !benchFiles[name] {
					t.Errorf("%s:%d: %s is not a file in the tree", doc, i+1, name)
				}
			}
			for _, name := range testNameRE.FindAllString(line, -1) {
				if !declared[name] {
					t.Errorf("%s:%d: no _test.go file declares %s", doc, i+1, name)
				}
			}
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			var code []string
			if inFence {
				code = append(code, line)
			}
			for _, m := range inlineCodeRE.FindAllStringSubmatch(line, -1) {
				code = append(code, m[1])
			}
			for _, c := range code {
				if m := makeCallRE.FindStringSubmatch(c); m != nil && !targets[m[1]] {
					t.Errorf("%s:%d: the Makefile defines no target %q", doc, i+1, m[1])
				}
			}
		}
	}
}
