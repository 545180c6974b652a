package asyncmg_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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

// goFiles lists the Go files under dir outside testdata and hidden
// directories; from "." it leaves out bench/, a module of its own.
func goFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
	for _, path := range goFiles(t, ".") {
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
	for _, path := range goFiles(t, ".") {
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

// nodeRefs lists the positions in one Go source file of the nodes match
// accepts. Comments and strings are not nodes it sees.
func nodeRefs(fset *token.FileSet, path string, src any, match func(ast.Node) bool) ([]string, error) {
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var refs []string
	ast.Inspect(f, func(n ast.Node) bool {
		if n != nil && match(n) {
			refs = append(refs, fset.Position(n.Pos()).String())
		}
		return true
	})
	return refs, nil
}

// methodCall matches a call x.m(…) of any x, m one of names.
func methodCall(names ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && slices.Contains(names, sel.Sel.Name)
	}
}

// qualified matches a selector pkg.Name whose Name starts with one of
// prefixes.
func qualified(pkg string, prefixes ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == pkg && slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(sel.Sel.Name, p) })
	}
}

// anyOf matches what one of ms matches.
func anyOf(ms ...func(ast.Node) bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		return slices.ContainsFunc(ms, func(m func(ast.Node) bool) bool { return m(n) })
	}
}

// checkGuard fails t for every node match accepts in files, naming why,
// and holds match to planted sources and the number of nodes each must
// yield.
func checkGuard(t *testing.T, files []string, match func(ast.Node) bool, why string, planted map[string]int) {
	t.Helper()
	fset := token.NewFileSet()
	for _, path := range files {
		refs, err := nodeRefs(fset, path, nil, match)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			t.Errorf("%s: %s", r, why)
		}
	}
	for src, want := range planted {
		if refs, err := nodeRefs(fset, "planted.go", src, match); err != nil || len(refs) != want {
			t.Errorf("planted %q: %d matches (%v), want %d", src, len(refs), err, want)
		}
	}
}

// production lists the non-test Go files under dir outside the given
// directories.
func production(t *testing.T, dir string, outside ...string) []string {
	return slices.DeleteFunc(goFiles(t, dir), func(path string) bool {
		return strings.HasSuffix(path, "_test.go") ||
			slices.ContainsFunc(outside, func(d string) bool { return strings.HasPrefix(path, d+string(filepath.Separator)) })
	})
}

// TestOneCycleImplementation: the engine's cycles are the one multigrid
// cycle in the tree, so no production Go outside internal/engine and
// internal/op, bench/ included, calls ApplyT or ApplyAdd (a second cycle
// would restrict and prolong through them).
func TestOneCycleImplementation(t *testing.T) {
	files := append(production(t, ".", "internal/engine", "internal/op"), production(t, "bench")...)
	checkGuard(t, files, methodCall("ApplyT", "ApplyAdd"), "ApplyT/ApplyAdd outside the engine: one cycle implementation", map[string]int{
		"package p\nfunc f(t T) { t.ApplyT(c, f); t.ApplyAdd(f, c) }\n":                2,
		"package p\nfunc f(t T) { t.ApplyTRange(c, f, 0, 1); g := t.ApplyT; _ = g }\n": 0,
		"package p\n// t.ApplyT(c, f)\nvar s = \"t.ApplyAdd(f, c)\"\n":                 0,
	})
}

// TestOneCyclingLoop: the engine's Solve loop is the one cycling loop, so
// no production Go outside internal/engine and bench/ calls Cycle, and no
// loop pays each cycle's fine residual twice.
func TestOneCyclingLoop(t *testing.T) {
	checkGuard(t, production(t, ".", "internal/engine"), methodCall("Cycle"), "Cycle outside the engine: one cycling loop", map[string]int{
		"package p\nfunc f() { for { eng.Cycle(m, x, b, w) } }\n": 1,
		"package p\nfunc f() { eng.CycleCount(); Cycle(m) }\n":    0,
	})
}

// TestNoPeerCallFromANode: replication is pushed by the router, so the
// production Go of internal/serve makes no HTTP request: no http.Get…,
// http.Post… or http.NewRequest… and no Do call.
func TestNoPeerCallFromANode(t *testing.T) {
	match := anyOf(qualified("http", "Get", "Post", "NewRequest"), methodCall("Do"))
	checkGuard(t, production(t, "internal/serve"), match, "a node calls a peer; replication is pushed by the router", map[string]int{
		"package p\nfunc f() { http.Get(u); http.PostForm(u, v); r, _ := http.NewRequestWithContext(c, m, u, nil); c.Do(r) }\n": 4,
		"package p\nfunc f() { http.HandleFunc(p, h); w.Header().Set(k, v); done() }\n":                                         0,
	})
}

// TestOneVerdictRule: vec.Judge is the one rule that decides a solve's
// verdict, so no Go outside bench/, tests included, names a per-caller
// DivergeFactor or blewUp or calls vec.Diverged.
func TestOneVerdictRule(t *testing.T) {
	match := anyOf(func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && (id.Name == "DivergeFactor" || id.Name == "blewUp")
	}, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && qualified("vec", "Diverged")(call.Fun) && call.Fun.(*ast.SelectorExpr).Sel.Name == "Diverged"
	})
	checkGuard(t, goFiles(t, "."), match, "a verdict outside vec.Judge: one verdict rule", map[string]int{
		"package p\nconst DivergeFactor = 1e3\nfunc f() bool { return blewUp || vec.Diverged(h) || o.DivergeFactor > 0 }\n": 4,
		"package p\n// DivergeFactor, blewUp, vec.Diverged(h)\nfunc f() { vec.Judge(h); vec.DivergedBy(h) }\n":              0,
	})
}
