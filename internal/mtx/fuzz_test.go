package mtx

import (
	"strings"
	"testing"
)

// FuzzRead exercises the Matrix Market parser with arbitrary inputs: it
// must never panic, and anything it accepts must be a structurally valid
// matrix.
func FuzzRead(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\n2 2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 -1\n2 2 4\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n% c\n3 3 3\n1 1 3\n2 2 -4\n3 3 7\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1\n1 1 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		a, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("accepted invalid matrix: %v\ninput: %q", err, in)
		}
	})
}

// FuzzReadMatrixMarket checks the write/read round trip: any matrix the
// parser accepts must survive Write → Read bitwise unchanged (Write emits
// %.17g, which round-trips every finite float64; symmetric and pattern
// inputs are expanded on the first read, so the re-read equals the
// in-memory form, not the original text).
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\n2 2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 -1\n2 2 4\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 4 2\n1 4 1e-300\n2 1 -2.0000000000000004\n")
	f.Add("%%MatrixMarket matrix coordinate integer symmetric\n2 2 2\n1 1 4\n2 1 -1\n")
	// Duplicates summed below the row count (refused, as its written form
	// would be) and summed but still covering every row.
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n1 1 1\n2 2 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		a, err := Read(strings.NewReader(in))
		if err != nil || a.Validate() != nil {
			return
		}
		var buf strings.Builder
		if err := Write(&buf, a); err != nil {
			t.Fatalf("Write failed on accepted matrix: %v\ninput: %q", err, in)
		}
		b, err := Read(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-read failed: %v\nwritten: %q", err, buf.String())
		}
		if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
			t.Fatalf("round trip changed shape: %dx%d/%d -> %dx%d/%d",
				a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
		}
		for i := range a.RowPtr {
			if a.RowPtr[i] != b.RowPtr[i] {
				t.Fatalf("round trip changed RowPtr[%d]: %d -> %d", i, a.RowPtr[i], b.RowPtr[i])
			}
		}
		for p := range a.Vals {
			if a.ColIdx[p] != b.ColIdx[p] || a.Vals[p] != b.Vals[p] {
				t.Fatalf("round trip changed entry %d: (%d, %g) -> (%d, %g)",
					p, a.ColIdx[p], a.Vals[p], b.ColIdx[p], b.Vals[p])
			}
		}
	})
}
