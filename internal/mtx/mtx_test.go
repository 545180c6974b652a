package mtx

import (
	"bytes"
	"compress/gzip"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"asyncmg/internal/grid"
	"asyncmg/internal/sparse"
	"asyncmg/internal/sparse/sparsetest"
)

func TestRoundTrip(t *testing.T) {
	a := grid.Laplacian7pt(4)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != a.Rows || back.Cols != a.Cols || back.NNZ() != a.NNZ() {
		t.Fatalf("shape changed: %dx%d nnz %d", back.Rows, back.Cols, back.NNZ())
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if got := sparsetest.At(back, i, a.ColIdx[p]); got != a.Vals[p] {
				t.Fatalf("(%d,%d): %v != %v", i, a.ColIdx[p], got, a.Vals[p])
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		n := int(seed%8) + 2
		coo := sparse.NewCOO(n, n, 3*n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, float64(i)+1.5)
			coo.Add(i, (i+1)%n, -0.25*float64(seed%7+1))
		}
		a := coo.ToCSR()
		var buf bytes.Buffer
		if err := Write(&buf, a); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		if back.NNZ() != a.NNZ() {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(sparsetest.At(back, i, j)-sparsetest.At(a, i, j)) > 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReadSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 2 -1.0
`
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Entries (1,1),(2,1),(2,2),(3,2); the two off-diagonals expand to
	// their transposes: 4 + 2 = 6 stored values.
	if a.NNZ() != 6 {
		t.Fatalf("nnz = %d, want 6", a.NNZ())
	}
	if sparsetest.At(a, 1, 0) != -1 || sparsetest.At(a, 0, 1) != -1 {
		t.Error("symmetric expansion missing")
	}
	if !sparsetest.IsSymmetric(a, 0) {
		t.Error("expanded matrix not symmetric")
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 3
1 1
1 2
2 2
`
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sparsetest.At(a, 0, 0) != 1 || sparsetest.At(a, 0, 1) != 1 || sparsetest.At(a, 1, 1) != 1 || sparsetest.At(a, 1, 0) != 0 {
		t.Errorf("pattern read wrong: %v", a.Vals)
	}
}

func TestReadIntegerField(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
2 2 2
1 1 3
2 2 -4
`
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sparsetest.At(a, 0, 0) != 3 || sparsetest.At(a, 1, 1) != -4 {
		t.Error("integer values wrong")
	}
}

func TestReadErrors(t *testing.T) {
	const gen = "%%MatrixMarket matrix coordinate real general\n"
	for _, tc := range []struct{ in, want string }{
		{"", "empty input"},
		{"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n", "only coordinate"},
		{"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", "unsupported field type"},
		{"%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1\n", "unsupported symmetry"},
		{gen, "missing size line"},
		{gen + "2 2 2\n1 1 1.0\n", "expected 2 entries, got 1"},
		{gen + "2 2 2\n5 1 1.0\n2 2 1.0\n", "out of range"},
		{gen + "2 2 2\n1 x 1.0\n2 2 1.0\n", "bad column index"},
		{gen + "2 2 1\n1 1 1.0\n", "declares 2 rows but 1 entries"},
		{gen + "2 2 2\n1 1 1.0\n1 1 1.0\n", "distinct entries"},
		{"%%MatrixMarket matrix coordinate real symmetric\n2 1 2\n2 1 0\n1 1 1\n", "must be square"},
		{"not a header\n", "bad header"},
	} {
		_, err := Read(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one containing %q", tc.in, err, tc.want)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.mtx")
	a := grid.Laplacian27pt(3)
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() {
		t.Errorf("nnz %d != %d", back.NNZ(), a.NNZ())
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.mtx")); !os.IsNotExist(err) {
		t.Errorf("missing file error = %v", err)
	}
}

func TestValuesPreservedExactly(t *testing.T) {
	// %.17g must round-trip float64 exactly.
	coo := sparse.NewCOO(1, 1, 1)
	coo.Add(0, 0, 0.1+0.2) // 0.30000000000000004
	a := coo.ToCSR()
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sparsetest.At(back, 0, 0) != 0.1+0.2 {
		t.Errorf("value not bit-exact: %v", sparsetest.At(back, 0, 0))
	}
}

func TestGzipRoundTrip(t *testing.T) {
	a := grid.Laplacian7pt(4)
	var plain bytes.Buffer
	if err := Write(&plain, a); err != nil {
		t.Fatal(err)
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	// Sniffed stream decompression.
	back, err := ReadMaybeGzip(bytes.NewReader(zipped.Bytes()))
	if err != nil {
		t.Fatalf("ReadMaybeGzip(gzip): %v", err)
	}
	if back.Rows != a.Rows || back.NNZ() != a.NNZ() {
		t.Fatalf("gzip round trip changed shape: %dx%d nnz %d", back.Rows, back.Cols, back.NNZ())
	}
	// Plain streams pass through ReadMaybeGzip untouched.
	if _, err := ReadMaybeGzip(bytes.NewReader(plain.Bytes())); err != nil {
		t.Fatalf("ReadMaybeGzip(plain): %v", err)
	}

	// .gz file path.
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx.gz")
	if err := os.WriteFile(path, zipped.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err = ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile(.gz): %v", err)
	}
	if back.Rows != a.Rows || back.NNZ() != a.NNZ() {
		t.Fatalf("gzip file round trip changed shape")
	}
	// Truncated gzip must error, not hang or panic.
	trunc := filepath.Join(dir, "trunc.mtx.gz")
	if err := os.WriteFile(trunc, zipped.Bytes()[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(trunc); err == nil {
		t.Fatal("truncated gzip: want error")
	}
}
