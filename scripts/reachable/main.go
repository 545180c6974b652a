// Command reachable lists the functions of a module that no binary links.
//
// Usage: go run ./scripts/reachable ROOT NM_OUTPUT ALLOWLIST
//
// ROOT is the module root, NM_OUTPUT the concatenated `go tool nm` output
// of every binary built from it with inlining off (-gcflags=all=-l), and
// ALLOWLIST a file of `symbol  # reason` lines. Every function or method
// declared in a non-test file of a non-main package, other than init and
// packages whose name ends in "test", must appear as a text symbol or in
// the allowlist. Each one that does neither is printed with its position,
// as is every allowlist entry that gives no reason or names no declaration
// or a linked one; then the exit status is 1.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: reachable ROOT NM_OUTPUT ALLOWLIST")
		os.Exit(2)
	}
	nm, err := os.ReadFile(os.Args[2])
	check(err)
	allow, err := os.ReadFile(os.Args[3])
	check(err)
	report, err := unlinked(os.Args[1], string(nm), string(allow))
	check(err)
	for _, line := range report {
		fmt.Println(line)
	}
	if len(report) > 0 {
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// unlinked returns one line per declared function that is neither linked
// nor allowlisted, and one per allowlist entry that lacks a reason or is
// not both declared and unlinked.
func unlinked(root, nm, allow string) ([]string, error) {
	decls, err := declared(root)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, line := range strings.Split(nm, "\n") {
		// "ADDR T NAME": the name may itself contain spaces.
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			linked[normalize(f[2])] = true
		}
	}
	var out []string
	allowed := map[string]bool{}
	for _, line := range strings.Split(allow, "\n") {
		name, reason, _ := strings.Cut(line, "#")
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		allowed[name] = true
		switch {
		case strings.TrimSpace(reason) == "":
			out = append(out, name+"  allowlisted without a reason")
		case decls[name] == "":
			out = append(out, name+"  allowlisted but not declared")
		case linked[name]:
			out = append(out, name+"  allowlisted but linked")
		}
	}
	for name, pos := range decls {
		if !linked[name] && !allowed[name] {
			out = append(out, name+"  "+pos)
		}
	}
	sort.Strings(out)
	return out, nil
}

var closure = regexp.MustCompile(`^(func|gowrap|deferwrap)?[0-9]+$`)

// normalize maps a linker symbol to the name declared gives its function:
// "m/p.(*T[go.shape.float64]).M.func1" and "m/p.T.M-fm" become "m/p.T.M".
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range strings.TrimSuffix(sym, "-fm") {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	s := b.String()
	slash := strings.LastIndex(s, "/") + 1
	parts := strings.Split(s[slash:], ".")
	for i := 1; i < len(parts); i++ {
		if closure.MatchString(parts[i]) {
			parts = parts[:i]
			break
		}
	}
	return s[:slash] + strings.Join(parts, ".")
}

// declared maps "importpath.Func" and "importpath.Type.Method" to the
// file:line of every function declared in ROOT's production packages.
func declared(root string) (map[string]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(mod)
	if m == nil {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	decls := map[string]string{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" || strings.HasSuffix(f.Name.Name, "test") {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		pkg := strings.TrimSuffix(string(m[1])+"/"+filepath.ToSlash(filepath.Dir(rel)), "/.")
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvType(fn.Recv.List[0].Type) + "." + name
			}
			decls[pkg+"."+name] = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(fn.Pos()).Line)
		}
		return nil
	})
	return decls, err
}

// recvType returns T for a receiver of type T, *T, T[K] or *T[K, V].
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return fmt.Sprint(e)
		}
	}
}
