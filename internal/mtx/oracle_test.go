package mtx

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"asyncmg/internal/sparse"
)

// readOracle is the entry loop Read had before it parsed lines in place:
// each line is trimmed and split by the strings package (Unicode white
// space) and every field is a new string. It shares readHeader with Read.
// The original sized its COO from the size line (nnz*2); a capacity hint
// does not change the result, so it is dropped here, and the hostile seeds
// below cost the oracle no more than they cost Read.
func readOracle(r io.Reader) (*sparse.CSR, error) {
	sc := scanner(r)
	h, err := readHeader(sc)
	if err != nil {
		return nil, err
	}
	rows, cols, nnz := h.rows, h.cols, h.nnz
	coo := sparse.NewCOO(rows, cols, 0)
	read := 0
	for read < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("mtx: expected %d entries, got %d", nnz, read)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if h.pattern {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("mtx: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("mtx: bad row index %q", f[0])
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("mtx: bad column index %q", f[1])
		}
		v := 1.0
		if !h.pattern {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mtx: bad value %q", f[2])
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mtx: entry (%d,%d) out of range %dx%d", i, j, rows, cols)
		}
		coo.Add(i-1, j-1, v)
		if h.symmetric && i != j {
			coo.Add(j-1, i-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mtx: %v", err)
	}
	return coo.ToCSR(), nil
}

// rowsExceedEntries reports whether in has more rows than entries, which
// Read refuses and the oracle did not: its size line declares more rows
// than entries, or the oracle's matrix stores fewer distinct entries than
// rows once duplicates are summed. The declared counts are checked first,
// so a size line alone costs the oracle nothing.
func rowsExceedEntries(in string) bool {
	h, err := readHeader(scanner(strings.NewReader(in)))
	if err != nil {
		return false
	}
	if h.rows > h.nnz {
		return true
	}
	a, err := readOracle(strings.NewReader(in))
	return err == nil && a.NNZ() < a.Rows
}

// hasNonASCIISpace reports whether in holds a white-space rune outside
// ASCII (U+0085, U+00A0, U+2000 …): the oracle's strings.Fields splits on
// it, Read does not, as Matrix Market is ASCII.
func hasNonASCIISpace(in string) bool {
	for _, r := range in {
		if r > unicode.MaxASCII && unicode.IsSpace(r) {
			return true
		}
	}
	return false
}

// matchOracle holds Read to the oracle on in: both fail, or both return
// the same shape, RowPtr, ColIdx and value bits. The two named predicates
// are the only inputs on which they may differ.
func matchOracle(t *testing.T, in string) (accepted bool) {
	t.Helper()
	got, err := Read(strings.NewReader(in))
	if rowsExceedEntries(in) {
		if err == nil {
			t.Fatalf("accepted a matrix with more rows than entries\ninput: %q", in)
		}
		return false
	}
	if hasNonASCIISpace(in) {
		return err == nil
	}
	want, werr := readOracle(strings.NewReader(in))
	if (err == nil) != (werr == nil) {
		t.Fatalf("Read error %v, oracle error %v\ninput: %q", err, werr, in)
	}
	if err != nil {
		return false
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || len(got.RowPtr) != len(want.RowPtr) || got.NNZ() != want.NNZ() {
		t.Fatalf("shape %dx%d/%d, oracle %dx%d/%d\ninput: %q",
			got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ(), in)
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, oracle %d\ninput: %q", i, got.RowPtr[i], want.RowPtr[i], in)
		}
	}
	for p := range want.Vals {
		if got.ColIdx[p] != want.ColIdx[p] || math.Float64bits(got.Vals[p]) != math.Float64bits(want.Vals[p]) {
			t.Fatalf("entry %d = (%d, %v), oracle (%d, %v)\ninput: %q",
				p, got.ColIdx[p], got.Vals[p], want.ColIdx[p], want.Vals[p], in)
		}
	}
	return true
}

// The two bodies that made the size line allocate what no one sent: 241 MB
// for five million declared entries, 41 MB of row storage for an empty
// five-million-row matrix.
const (
	hostileEntries = "%%MatrixMarket matrix coordinate real general\n1 1 5000000\n"
	hostileRows    = "%%MatrixMarket matrix coordinate real general\n5000000 5000000 0\n"
)

func TestReadMatchesOracle(t *testing.T) {
	const (
		gen = "%%MatrixMarket matrix coordinate real general\n"
		sym = "%%MatrixMarket matrix coordinate real symmetric\n"
		pat = "%%MatrixMarket matrix coordinate pattern general\n"
		itg = "%%MatrixMarket matrix coordinate integer general\n"
	)
	long := "0." + strings.Repeat("0", 40) + "125e42" // longer than a 32-byte stack buffer
	diag10 := ""
	for i := 1; i <= 10; i++ {
		diag10 += fmt.Sprintf("%d %d 1\n", i, i)
	}
	for _, tc := range []struct {
		name, in string
		ok       bool
	}{
		{"general", gen + "2 2 3\n1 1 4\n2 1 -1\n2 2 4\n", true},
		{"general duplicates", gen + "2 2 4\n1 1 0.1\n1 1 0.2\n2 2 1\n1 1 0.3\n", true},
		{"duplicates sum below rows", gen + "2 2 2\n1 1 1\n1 1 1\n", false},
		{"symmetric duplicates", sym + "3 3 3\n2 1 1\n2 1 2\n3 3 1\n", true},
		{"symmetric", sym + "3 3 4\n1 1 2\n2 1 -1\n2 2 2\n3 3 2\n", true},
		{"symmetric diagonal only", sym + "2 2 2\n1 1 2\n2 2 3\n", true},
		{"symmetric not square", sym + "2 1 2\n2 1 0\n1 1 1\n", false},
		{"pattern", pat + "2 2 3\n1 1\n1 2\n2 2\n", true},
		{"pattern extra field", pat + "2 2 2\n1 1 9\n2 2\n", true},
		{"integer", itg + "2 2 2\n1 1 3\n2 2 -4\n", true},
		{"comments and blank lines", gen + "% c\n\n2 2 2\n% mid\n\n   \n1 1 1\n\t\n% x y z\n2 2 1\n", true},
		{"comment after blanks", gen + "2 2 2\n  \t% indented comment\n1 1 1\n2 2 1\n", true},
		{"CRLF", "%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 1.5\r\n2 2 2.5\r\n", true},
		{"tabs", gen + "2 2 2\n1\t1\t1.5\n\t2 \t 2\t2.5\t\n", true},
		{"vertical tab and form feed", gen + "2 2 2\n1\v1\f1.5\n2 2 2.5\v\n", true},
		{"plus signs and leading zeros", gen + "2 2 2\n+1 001 +0.5\n0002 +2 007\n", true},
		{"exponents", gen + "2 2 3\n1 1 1e-300\n1 2 -2.5E+10\n2 2 4.9406564584124654e-324\n", true},
		{"hex float and underscores", gen + "2 2 2\n1 1 0x1p-2\n2 2 0x_1p3\n", true},
		{"long token", gen + "2 2 2\n1 1 " + long + "\n2 2 1\n", true},
		{"extra fields", gen + "2 2 2\n1 1 1 junk more\n2 2 1 0\n", true},
		{"line past the first buffer", gen + "2 2 2\n1 1 1 " + strings.Repeat("x", 100<<10) + "\n2 2 1\n", true},
		{"line past 1 MB", gen + "2 2 2\n1 1 1 " + strings.Repeat("x", 1<<20) + "\n2 2 1\n", false},
		{"no final newline", gen + "2 2 2\n1 1 1\n2 2 1", true},
		{"trailing lines ignored", gen + "2 2 2\n1 1 1\n2 2 1\n3 3 garbage\n", true},
		{"rows equal entries", gen + "3 3 3\n1 1 1\n2 2 1\n3 3 1\n", true},
		{"more columns than rows", gen + "1 3 2\n1 1 1\n1 3 -1\n", true},
		{"inf", gen + "2 2 2\n1 1 inf\n2 2 1\n", true},
		{"nan", gen + "2 2 2\n1 1 NaN\n2 2 -Infinity\n", true},
		{"value out of range", gen + "2 2 2\n1 1 1e400\n2 2 1\n", false},
		{"too few fields", gen + "2 2 2\n1 1\n2 2 1\n", false},
		{"too few fields pattern", pat + "2 2 2\n1\n2 2\n", false},
		{"bad row index", gen + "2 2 2\n1.0 1 1\n2 2 1\n", false},
		{"bad column index", gen + "2 2 2\n1 x 1\n2 2 1\n", false},
		{"index overflow", gen + "2 2 2\n99999999999999999999 1 1\n2 2 1\n", false},
		{"index with underscore", gen + "2 2 2\n1_0 1 1\n2 2 1\n", false},
		{"bad value", gen + "2 2 2\n1 1 1..5\n2 2 1\n", false},
		{"row out of range", gen + "2 2 2\n3 1 1\n2 2 1\n", false},
		{"column out of range", gen + "2 2 2\n1 0 1\n2 2 1\n", false},
		{"negative index", gen + "2 2 2\n-1 1 1\n2 2 1\n", false},
		{"truncated", gen + "2 2 3\n1 1 1\n2 2 1\n", false},
		{"truncated mid line", gen + "2 2 2\n1 1 1\n2 2", false},
		{"truncated at size line", gen + "% only a comment\n", false},
		{"bad size line", gen + "2 x 2\n", false},
		{"negative size", gen + "2 2 -1\n", false},
		{"size line leading zeros", gen + "02 02 002\n1 1 1\n2 2 1\n", true},
		{"size line hex", gen + "0x2 2 2\n1 1 1\n2 2 1\n", false},
		{"size line underscore", gen + "1_0 1_0 1_0\n" + diag10, false},
		{"size line fourth field", gen + "2 2 2 2\n1 1 1\n2 2 1\n", false},
		{"empty matrix", gen + "0 0 0\n", true},
		{"declared entries", hostileEntries, false},
		{"huge symmetric count", sym + "1 1 4611686018427387904\n1 1 1\n", false},
		{"largest count", gen + "1 1 9223372036854775807\n1 1 1\n", false},
		{"declared rows", hostileRows, false},
		{"rows exceed entries", gen + "3 3 2\n1 1 1\n2 2 1\n", false},
		{"no-break space", gen + "2 2 2\n1 1 1\n2 2 1\n", false},
		{"next line", gen + "2 2 2\n1 1\u00851\n2 2 1\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if ok := matchOracle(t, tc.in); ok != tc.ok {
				t.Errorf("accepted = %v, want %v", ok, tc.ok)
			}
		})
	}
}

// TestReadSizeLineBase10: the size line is read in base 10 like the
// entry lines, so a leading zero is not octal (010 is ten, not eight), and
// a hexadecimal or underscored count and a fourth field are refused.
func TestReadSizeLineBase10(t *testing.T) {
	const gen = "%%MatrixMarket matrix coordinate real general\n"
	var body strings.Builder
	body.WriteString(gen + "010 010 030\n")
	for i := 1; i <= 10; i++ {
		fmt.Fprintf(&body, "%d %d 4\n%d %d -1\n%d %d -1\n", i, i, i, i%10+1, i, (i+8)%10+1)
	}
	a, err := Read(strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 10 || a.Cols != 10 || a.NNZ() != 30 {
		t.Fatalf("010 010 030 read as %dx%d with %d entries, want 10x10 with 30", a.Rows, a.Cols, a.NNZ())
	}
	for _, size := range []string{"0x10 0x10 0x30", "1_0 1_0 3_0", "10 10 30 1"} {
		if _, err := Read(strings.NewReader(gen + size + "\n" + body.String()[len(gen)+len("010 010 030\n"):])); err == nil {
			t.Errorf("size line %q accepted", size)
		}
	}
}

// FuzzReadMatchesOracle: on every input Read and the line-splitting oracle
// both fail or agree bit for bit, outside the two named divergences.
func FuzzReadMatchesOracle(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\n2 2 -1e-3\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n% c\n2 2 2\r\n1 1 4\r\n2 1 -1\r\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n\t1  1 \n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n2 2 2\n+01 1 007\n2\t2\t-4\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n1 1 1\n")
	f.Add(hostileEntries)
	f.Add(hostileRows)
	f.Fuzz(func(t *testing.T, in string) {
		matchOracle(t, in)
	})
}

// TestReadRefusesDeclaredSizes: a size line alone allocates nothing in
// proportion to what it declares. Each hostile body is refused while the
// heap grows by less than 4 MB (the line scanner's buffer starts at 64 KB).
func TestReadRefusesDeclaredSizes(t *testing.T) {
	for _, in := range []string{hostileEntries, hostileRows} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("accepted %q", in)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
			t.Errorf("%q: allocated %d bytes before failing", in, grew)
		}
	}
}

// TestReadAllocsDoNotScaleWithEntries: a line costs no allocation, so the
// reads of 1 000 and 10 000 entries differ only by O(log entries)
// allocations. Storage starts at 1 024 triplets and doubles when it fills,
// so the longer read grows each of the three triplet slices
// bits.Len(10 000/1 024) = 4 more times. Garbage collection during the
// runs may add one or two more (one was seen under -race); the
// line-splitting oracle took two allocations per line.
func TestReadAllocsDoNotScaleWithEntries(t *testing.T) {
	body := func(n int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", n, n, n)
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&b, "%d %d %.17g\n", i, i, 1+1/float64(i))
		}
		return b.String()
	}
	allocs := func(in string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Read(strings.NewReader(in)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(body(1000)), allocs(body(10000))
	if growths := 3 * bits.Len(10000/1024); large-small > float64(growths+2) {
		t.Errorf("Read: %v allocations for 1 000 entries, %v for 10 000", small, large)
	}
}
