package gf256

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a matrix that must be inverted for decoding is
// singular, which indicates that the supplied rows are linearly dependent.
var ErrSingular = errors.New("gf256: matrix is singular")

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte
}

// NewMatrix returns a zero matrix with the given dimensions. It panics if
// either dimension is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf256: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// NewMatrixFromRows builds a matrix from the given rows, which must all have
// the same length. The rows are copied.
func NewMatrixFromRows(rows [][]byte) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("gf256: empty matrix")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("gf256: row %d has %d columns, want %d", i, len(r), m.cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns a rows-by-cols Vandermonde matrix whose entry (r, c) is
// (alpha_r)^c where alpha_r = generator^r. Any cols-by-cols submatrix formed
// from distinct rows is invertible, which is the property erasure decoding
// relies on.
func Vandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		alpha := PowGenerator(r)
		for c := 0; c < cols; c++ {
			m.Set(r, c, Exp(alpha, c))
		}
	}
	return m
}

// SystematicVandermonde returns the rows-by-cols Vandermonde matrix multiplied
// by the inverse of its own top cols rows. The top cols rows of the result are
// the identity — a code generated by it carries the data unchanged in its
// first cols blocks — and every cols-by-cols submatrix of distinct rows is
// still invertible, being an invertible Vandermonde submatrix times an
// invertible matrix. It panics unless cols <= rows <= 255.
func SystematicVandermonde(rows, cols int) *Matrix {
	if rows < cols || rows > Order-1 {
		panic(fmt.Sprintf("gf256: invalid systematic Vandermonde dimensions %dx%d", rows, cols))
	}
	v := Vandermonde(rows, cols)
	top := make([]int, cols)
	for i := range top {
		top[i] = i
	}
	inv, err := v.SubMatrix(top).Invert()
	if err != nil {
		panic(fmt.Sprintf("gf256: square Vandermonde with distinct points is singular: %v", err))
	}
	m, err := v.Mul(inv)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the entry at row r, column c.
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set assigns the entry at row r, column c.
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns a mutable view of row r.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// SubMatrix returns a new matrix consisting of the listed rows, in order.
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	s := NewMatrix(len(rows), m.cols)
	for i, r := range rows {
		copy(s.Row(i), m.Row(r))
	}
	return s
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("gf256: cannot multiply %dx%d by %dx%d", m.rows, m.cols, other.rows, other.cols)
	}
	out := NewMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			MulAddSlice(a, out.Row(r), other.Row(k))
		}
	}
	return out, nil
}

// MulVec multiplies the matrix by a column vector of per-row byte slices: the
// input has m.cols rows each of width w bytes, and the result has m.rows rows
// of width w. This is the core encode/decode primitive: each output shard is
// a GF(2^8)-linear combination of the input shards.
func (m *Matrix) MulVec(in [][]byte) ([][]byte, error) {
	if len(in) != m.cols {
		return nil, fmt.Errorf("gf256: MulVec input has %d rows, want %d", len(in), m.cols)
	}
	width := len(in[0])
	for i, row := range in {
		if len(row) != width {
			return nil, fmt.Errorf("gf256: MulVec input row %d has width %d, want %d", i, len(row), width)
		}
	}
	out := make([][]byte, m.rows)
	for r := 0; r < m.rows; r++ {
		out[r] = make([]byte, width)
		DotSlices(m.Row(r), out[r], in)
	}
	return out, nil
}

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination. It returns ErrSingular if no inverse exists.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("gf256: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	work := m.Clone()
	out := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot row with a non-zero entry in this column.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(out, pivot, col)
		}
		// Scale the pivot row so the pivot entry becomes 1.
		if p := work.At(col, col); p != 1 {
			inv := Inv(p)
			MulSlice(inv, work.Row(col), work.Row(col))
			MulSlice(inv, out.Row(col), out.Row(col))
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := work.At(r, col)
			if factor == 0 {
				continue
			}
			MulAddSlice(factor, work.Row(r), work.Row(col))
			MulAddSlice(factor, out.Row(r), out.Row(col))
		}
	}
	return out, nil
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for r := 0; r < m.rows; r++ {
		s += fmt.Sprintf("%v\n", m.Row(r))
	}
	return s
}
