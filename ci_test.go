package asyncmg_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxStepName is the longest name a workflow step may carry; what a
// longer name would say goes into `#` comments above the step.
const maxStepName = 100

// workflowNameErrors lists the `name:` keys of a GitHub Actions workflow
// that break it: a plain (unquoted) scalar containing ": ", which YAML
// reads as a nested mapping, so the whole file stops parsing and no job
// runs; and a name over maxStepName characters.
func workflowNameErrors(yml string) []string {
	var errs []string
	for i, line := range strings.Split(yml, "\n") {
		key := strings.TrimPrefix(strings.TrimSpace(line), "- ")
		name, ok := strings.CutPrefix(key, "name:")
		if !ok {
			continue
		}
		name = strings.TrimSpace(name)
		quoted := strings.HasPrefix(name, `"`) || strings.HasPrefix(name, `'`)
		if !quoted && strings.Contains(name, ": ") {
			errs = append(errs, fmt.Sprintf("line %d: plain-scalar name contains \": \": %.60q", i+1, name))
		}
		if len(name) > maxStepName {
			errs = append(errs, fmt.Sprintf("line %d: name is %d characters, over %d", i+1, len(name), maxStepName))
		}
	}
	return errs
}

// TestWorkflowStepNames holds .github/workflows/ci.yml to
// workflowNameErrors, and the check itself to one planted violation of
// each kind.
func TestWorkflowStepNames(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range workflowNameErrors(string(yml)) {
		t.Errorf("ci.yml %s", e)
	}
	for _, planted := range []string{
		"      - name: Build: run every example\n",
		"      - name: " + strings.Repeat("x", maxStepName+1) + "\n",
	} {
		if workflowNameErrors(planted) == nil {
			t.Errorf("planted %.40q passes the check", planted)
		}
	}
	for _, fine := range []string{
		"      - name: Build\n",
		"      - name: \"Build: run every example\"\n",
		"      - name: Vet and test the benchmark module (bench/ is its own module; ./... above does not reach it)\n",
	} {
		if errs := workflowNameErrors(fine); errs != nil {
			t.Errorf("%.40q fails the check: %v", fine, errs)
		}
	}
}

// syncPoolRefs lists the references to sync.Pool in one Go source file,
// under whatever name the file imports "sync". Comments do not count.
func syncPoolRefs(fset *token.FileSet, path string, src any) ([]string, error) {
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, imp := range f.Imports {
		if imp.Path.Value == `"sync"` {
			name := "sync"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = true
		}
	}
	var refs []string
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pool" {
			if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] {
				refs = append(refs, fset.Position(sel.Pos()).String())
			}
		}
		return true
	})
	return refs, nil
}

// goFiles lists the Go files of the module outside bench/ (a module of
// its own), testdata and hidden directories.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestNoSyncPool: the program reuses state through par.FreeList only. A
// sync.Pool drops what it holds at every GC and keeps it per P, so no
// non-test Go file outside bench/ may refer to one. The check itself is
// held to planted sources.
func TestNoSyncPool(t *testing.T) {
	fset := token.NewFileSet()
	for _, path := range goFiles(t) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		refs, err := syncPoolRefs(fset, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			t.Errorf("%s: sync.Pool; reuse state through par.FreeList", r)
		}
	}
	for src, want := range map[string]int{
		"package p\nimport \"sync\"\nvar p = sync.Pool{New: func() any { return 0 }}\n": 1,
		"package p\nimport s \"sync\"\nfunc f() *s.Pool { return new(s.Pool) }\n":       2,
		"package p\nimport \"sync\"\n// a sync.Pool\nvar m sync.Mutex\n":                0,
	} {
		if refs, err := syncPoolRefs(fset, "planted.go", src); err != nil || len(refs) != want {
			t.Errorf("planted %q: %d references (%v), want %d", src, len(refs), err, want)
		}
	}
}

// benchmarkFuncs lists the top-level functions named Benchmark… in one Go
// source file.
func benchmarkFuncs(fset *token.FileSet, path string, src any) ([]string, error) {
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var funcs []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
			funcs = append(funcs, fmt.Sprintf("%s: func %s", fset.Position(fn.Pos()), fn.Name.Name))
		}
	}
	return funcs, nil
}

// TestNoBenchmarkOutsideBench: times are measured by bench/ alone, so no
// Go file outside it, test files included, declares a top-level
// Benchmark… function (go test benchmarks would be a second pipeline).
// The check itself is held to planted sources.
func TestNoBenchmarkOutsideBench(t *testing.T) {
	fset := token.NewFileSet()
	for _, path := range goFiles(t) {
		funcs, err := benchmarkFuncs(fset, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range funcs {
			t.Errorf("%s; measure in bench/", f)
		}
	}
	for src, want := range map[string]int{
		"package p\nimport \"testing\"\nfunc BenchmarkSpMV(b *testing.B) {}\n":            1,
		"package p\nfunc Benchmarks() {}\nfunc benchmarkHelper() {}\n":                    1,
		"package p\ntype s struct{}\nfunc (s) BenchmarkLike() {}\n// func BenchmarkX()\n": 0,
	} {
		if funcs, err := benchmarkFuncs(fset, "planted_test.go", src); err != nil || len(funcs) != want {
			t.Errorf("planted %q: %d benchmarks (%v), want %d", src, len(funcs), err, want)
		}
	}
}
