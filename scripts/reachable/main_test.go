package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fixture is a tiny module: package a declares one function of every
// shape the lister must match against its linker symbol, plus one that
// nothing links; main packages, _test.go files and *test packages are
// outside the production tree.
var fixture = map[string]string{
	"go.mod": "module fix\n",
	"a/a.go": `package a

func Used()    {}
func Unused()  {}
func Allowed() {}

type T struct{}

func (t *T) Ptr() {}
func (T) Val()    {}

type G[V any] struct{}

func (g *G[V]) Gen() {}

func WithClosure() { f := func() {}; f() }

func init() {}
`,
	"a/a_test.go":   "package a\n\nfunc testOnly() {}\n",
	"a/atest/h.go":  "package atest\n\nfunc Helper() {}\n",
	"cmd/x/main.go": "package main\n\nfunc main() {}\n\nfunc helper() {}\n",
	"nested/go.mod": "module other\n",
	"nested/n.go":   "package n\n\nfunc Elsewhere() {}\n",
}

// nm is a fake `go tool nm` listing of the fixture's one binary.
const nm = `  401000 T fix/a.Used
  401100 T fix/a.(*T).Ptr
  401200 t fix/a.T.Val-fm
  401300 T fix/a.(*G[go.shape.struct { X int }]).Gen
  401400 T fix/a.WithClosure.func1
  401500 T fix/a.init.0
  401600 T main.main
  401700 D fix/a.Unused
           U fix/a.Unused
`

func TestUnlinked(t *testing.T) {
	root := t.TempDir()
	for name, src := range fixture {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name, allow string
		want        []string
	}{
		{"unlisted unreferenced function reported", "fix/a.Allowed  # reason\n",
			[]string{"fix/a.Unused  a/a.go:4"}},
		{"allowlisted ones are not", "# comment\n\nfix/a.Allowed  # r\nfix/a.Unused # kept\n", nil},
		{"an entry needs a reason", "fix/a.Allowed\nfix/a.Unused #\n",
			[]string{"fix/a.Allowed  allowlisted without a reason", "fix/a.Unused  allowlisted without a reason"}},
		{"stale allowlist entries reported", "fix/a.Allowed # r\nfix/a.Unused # r\nfix/a.Gone # r\nfix/a.Used # r\n",
			[]string{"fix/a.Gone  allowlisted but not declared", "fix/a.Used  allowlisted but linked"}},
	} {
		got, err := unlinked(root, nm, tc.allow)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	for sym, want := range map[string]string{
		"m/p.F":                              "m/p.F",
		"m/p.(*T).M":                         "m/p.T.M",
		"m/p.T.M-fm":                         "m/p.T.M",
		"m/p.(*T[go.shape.float64,int32]).M": "m/p.T.M",
		"m/p.F[go.shape.float32]":            "m/p.F",
		"m/p.F.func1":                        "m/p.F",
		"m/p.(*T).M.func2.3":                 "m/p.T.M",
		"m/p.F.gowrap1":                      "m/p.F",
		"m.F":                                "m.F",
	} {
		if got := normalize(sym); got != want {
			t.Errorf("normalize(%q) = %q, want %q", sym, got, want)
		}
	}
}
