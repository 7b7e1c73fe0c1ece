package cncount_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
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
	// docPathRE matches a package path and an optional suffix: file
	// extensions (internal/core/count.go, testdata/all_scale0.1.golden) or
	// a member (internal/trace.Validate).
	docPathRE    = regexp.MustCompile(`(?:^|[^\w.-])((?:cmd|internal|examples)(?:/[\w-]+)+)((?:\.\w+)*)`)
	benchFileRE  = regexp.MustCompile(`BENCH_[\w-]+\.json`)
	testNameRE   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	testDeclRE   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	inlineCodeRE = regexp.MustCompile("`([^`]+)`")
	makeCallRE   = regexp.MustCompile(`^\s*make\s+([\w-]+)`)
	makeTargetRE = regexp.MustCompile(`(?m)^([\w-]+):`)
	// goRefRE matches a Go name in inline code: pkg.Name, pkg.Type.Member
	// or pkg.(*Type).Method. Name and Type must be exported, so span and
	// metric names such as core.count stay prose.
	goRefRE = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.(?:\(\*([A-Z]\w*)\)\.(\w+)|([A-Z]\w*)(?:\.(\w+))?)`)
)

// goDecls maps cncount and each internal package's name to the names the
// package declares, tests included: every function, type, var, const,
// method and field as Name, which lets a doc name a method by its package
// alone (dynamic.ApplyBatch), and methods, struct fields and interface
// methods also as Type.Member.
func goDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range append([]string{"."}, dirs...) {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pkg := strings.TrimSuffix(f.Name.Name, "_test")
			if decls[pkg] == nil {
				decls[pkg] = map[string]bool{}
			}
			names := decls[pkg]
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					names[d.Name.Name] = true
					if d.Recv != nil {
						names[typeName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								names[id.Name] = true
							}
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
							var members []*ast.Field
							switch typ := spec.Type.(type) {
							case *ast.StructType:
								members = typ.Fields.List
							case *ast.InterfaceType:
								members = typ.Methods.List
							}
							for _, m := range members {
								ids := m.Names
								if len(ids) == 0 { // embedded
									ids = []*ast.Ident{{Name: typeName(m.Type)}}
								}
								for _, id := range ids {
									names[id.Name] = true
									names[spec.Name.Name+"."+id.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// typeName is the name of a receiver or embedded type: T for T, *T, T[P]
// and pkg.T.
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// TestDocsNameExistingArtifacts fails when a guarded document names a
// cmd/, internal/ or examples/ path, a BENCH_*.json file, a make target
// or a Go test, benchmark or fuzz target that the tree does not have, or
// when its inline code names a Go identifier (pkg.Name, pkg.Type.Member
// or pkg.(*Type).Method) that cncount or the internal package pkg does
// not declare, so the docs cannot outlive the code they describe. Make
// targets count only in code (fenced blocks and inline code spans),
// where prose cannot collide with them.
func TestDocsNameExistingArtifacts(t *testing.T) {
	decls := goDecls(t)
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
				for _, r := range goRefRE.FindAllStringSubmatch(m[1], -1) {
					names := decls[r[1]]
					if names == nil {
						continue // not one of the module's packages
					}
					var missing string
					switch {
					case r[2] != "":
						if name := r[2] + "." + r[3]; !names[name] {
							missing = name
						}
					case !names[r[4]]:
						missing = r[4]
					case r[5] != "" && !names[r[4]+"."+r[5]]:
						missing = r[4] + "." + r[5]
					}
					if missing != "" {
						t.Errorf("%s:%d: package %s declares no %s", doc, i+1, r[1], missing)
					}
				}
			}
			for _, c := range code {
				if m := makeCallRE.FindStringSubmatch(c); m != nil && !targets[m[1]] {
					t.Errorf("%s:%d: the Makefile defines no target %q", doc, i+1, m[1])
				}
			}
		}
	}
}
