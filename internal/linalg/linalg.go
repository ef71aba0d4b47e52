// Package linalg implements dense linear algebra over the GKM field F_q
// (package ff64). The publisher uses it to compute access control vectors:
// random non-trivial elements of the null space of the subscriber matrix A
// (paper §V-C). The implementation mirrors the paper's use of NTL's kernel()
// routine: Gauss–Jordan elimination to reduced row-echelon form, a null-space
// basis read off the free columns, and a random linear combination of basis
// vectors. That Gauss–Jordan path is the reference: every solve in the system
// runs the blocked elimination of blocked.go, and the differential tests and
// the root reference benchmark hold it to this one.
package linalg

import (
	"errors"
	"fmt"

	"ppcd/internal/ff64"
)

// Vector is a dense vector over F_q.
type Vector []ff64.Elem

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Dot returns the inner product v·w. The two vectors must have equal length.
func (v Vector) Dot(w Vector) (ff64.Elem, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("linalg: dot of length %d with length %d", len(v), len(w))
	}
	var acc ff64.Elem
	for i := range v {
		acc = ff64.MulAdd(acc, v[i], w[i])
	}
	return acc, nil
}

// Add returns v + w elementwise.
func (v Vector) Add(w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("linalg: add of length %d with length %d", len(v), len(w))
	}
	out := NewVector(len(v))
	for i := range v {
		out[i] = ff64.Add(v[i], w[i])
	}
	return out, nil
}

// Scale returns c·v.
func (v Vector) Scale(c ff64.Elem) Vector {
	out := NewVector(len(v))
	for i := range v {
		out[i] = ff64.Mul(c, v[i])
	}
	return out
}

// AddInPlace adds w into v elementwise without allocating. The hot-path
// variant of Add for callers that own v (engine solve loops, kernel
// sampling); the two vectors must have equal length.
func (v Vector) AddInPlace(w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("linalg: add of length %d with length %d", len(v), len(w))
	}
	for i := range v {
		v[i] = ff64.Add(v[i], w[i])
	}
	return nil
}

// ScaleInPlace multiplies v by c without allocating.
func (v Vector) ScaleInPlace(c ff64.Elem) {
	for i := range v {
		v[i] = ff64.Mul(c, v[i])
	}
}

// IsZero reports whether every entry is zero.
func (v Vector) IsZero() bool {
	for _, e := range v {
		if e != ff64.Zero {
			return false
		}
	}
	return true
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := NewVector(len(v))
	copy(out, v)
	return out
}

// Matrix is a dense row-major matrix over F_q.
type Matrix struct {
	Rows, Cols int
	data       []ff64.Elem
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, data: make([]ff64.Elem, rows*cols)}
}

// At returns the entry at (i, j).
func (m *Matrix) At(i, j int) ff64.Elem { return m.data[i*m.Cols+j] }

// Set assigns the entry at (i, j).
func (m *Matrix) Set(i, j int, v ff64.Elem) { m.data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) Vector { return Vector(m.data[i*m.Cols : (i+1)*m.Cols]) }

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v Vector) error {
	if len(v) != m.Cols {
		return fmt.Errorf("linalg: row length %d != %d columns", len(v), m.Cols)
	}
	copy(m.data[i*m.Cols:(i+1)*m.Cols], v)
	return nil
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.data, m.data)
	return out
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v Vector) (Vector, error) {
	if len(v) != m.Cols {
		return nil, fmt.Errorf("linalg: matrix has %d cols, vector has %d entries", m.Cols, len(v))
	}
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		d, _ := m.Row(i).Dot(v)
		out[i] = d
	}
	return out, nil
}

// rref reduces m in place to reduced row-echelon form and returns the pivot
// column of each pivot row, in order.
func (m *Matrix) rref() []int {
	pivots := make([]int, 0, min(m.Rows, m.Cols))
	r := 0
	for c := 0; c < m.Cols && r < m.Rows; c++ {
		// Find a pivot in column c at or below row r.
		p := -1
		for i := r; i < m.Rows; i++ {
			if m.At(i, c) != ff64.Zero {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		m.swapRows(p, r)
		// Normalise the pivot row.
		inv := ff64.MustInv(m.At(r, c))
		m.scaleRowFrom(r, c, inv)
		// Eliminate the column everywhere else.
		for i := 0; i < m.Rows; i++ {
			if i == r {
				continue
			}
			f := m.At(i, c)
			if f == ff64.Zero {
				continue
			}
			m.addScaledRowFrom(i, r, c, ff64.Neg(f))
		}
		pivots = append(pivots, c)
		r++
	}
	return pivots
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.data[i*m.Cols : (i+1)*m.Cols]
	rj := m.data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// scaleRowFrom multiplies row i by c, starting at column from (earlier
// columns are known to be zero).
func (m *Matrix) scaleRowFrom(i, from int, c ff64.Elem) {
	row := m.data[i*m.Cols : (i+1)*m.Cols]
	for k := from; k < len(row); k++ {
		row[k] = ff64.Mul(row[k], c)
	}
}

// addScaledRowFrom adds c·row[src] to row[dst], starting at column from.
func (m *Matrix) addScaledRowFrom(dst, src, from int, c ff64.Elem) {
	rd := m.data[dst*m.Cols : (dst+1)*m.Cols]
	rs := m.data[src*m.Cols : (src+1)*m.Cols]
	for k := from; k < len(rd); k++ {
		rd[k] = ff64.MulAdd(rd[k], c, rs[k])
	}
}

// Rank returns the rank of m (m is not modified).
func (m *Matrix) Rank() int {
	c := m.Clone()
	return len(c.rref())
}

// Kernel returns a basis of the right null space of m, i.e. vectors v with
// m·v = 0. The basis has Cols - rank(m) vectors. m is not modified.
func (m *Matrix) Kernel() []Vector {
	work := m.Clone()
	pivots := work.rref()
	isPivot := make([]bool, m.Cols)
	pivotRowOfCol := make(map[int]int, len(pivots))
	for r, c := range pivots {
		isPivot[c] = true
		pivotRowOfCol[c] = r
	}
	basis := make([]Vector, 0, m.Cols-len(pivots))
	for free := 0; free < m.Cols; free++ {
		if isPivot[free] {
			continue
		}
		v := NewVector(m.Cols)
		v[free] = ff64.One
		// For each pivot column c with pivot row r: entry = -work[r][free].
		for _, c := range pivots {
			r := pivotRowOfCol[c]
			v[c] = ff64.Neg(work.At(r, free))
		}
		basis = append(basis, v)
	}
	return basis
}

// ErrTrivialKernel is returned by RandomKernelVector when the null space of
// the matrix is {0}, which means the publisher chose N too small (paper
// eq. (1) requires N >= number of rows).
var ErrTrivialKernel = errors.New("linalg: matrix has trivial null space")

// RandomKernelVector returns a uniformly random element of the null space of
// m, retrying until the sample is non-zero. This matches the paper's ACV
// construction: "choosing the ACV as a random linear combination of the
// basis vectors." m is not modified.
func (m *Matrix) RandomKernelVector() (Vector, error) {
	return m.Clone().RandomKernelVectorInPlace()
}

// RandomKernelVectorInPlace is the allocation-lean fast path behind
// RandomKernelVector: it reduces m in place (destroying its contents) and
// samples the random basis combination directly off the reduced form without
// materializing the basis vectors. For a free-column coefficient vector c the
// sample is out[free_f] = c_f and out[pivot_r] = -Σ_f c_f·R[r][free_f], which
// is exactly the random linear combination of the Kernel basis. Callers that
// assemble a throwaway matrix per solve (the publisher's rekey engine) skip
// one full matrix copy per configuration this way.
func (m *Matrix) RandomKernelVectorInPlace() (Vector, error) {
	pivots := m.rref()
	free := make([]int, 0, m.Cols-len(pivots))
	isPivot := make([]bool, m.Cols)
	for _, c := range pivots {
		isPivot[c] = true
	}
	for c := 0; c < m.Cols; c++ {
		if !isPivot[c] {
			free = append(free, c)
		}
	}
	if len(free) == 0 {
		return nil, ErrTrivialKernel
	}
	// Every entry of out is overwritten on each attempt (pivot and free
	// columns partition the column set), so both buffers are allocated once
	// outside the retry loop.
	out := NewVector(m.Cols)
	coeffs := make([]ff64.Elem, len(free))
	for attempt := 0; attempt < 64; attempt++ {
		for i := range coeffs {
			c, err := ff64.Rand()
			if err != nil {
				return nil, err
			}
			coeffs[i] = c
			out[free[i]] = c
		}
		for r, pc := range pivots {
			var acc ff64.Elem
			for i, fc := range free {
				acc = ff64.MulAdd(acc, coeffs[i], m.At(r, fc))
			}
			out[pc] = ff64.Neg(acc)
		}
		if !out.IsZero() {
			return out, nil
		}
	}
	return nil, errors.New("linalg: failed to sample non-zero kernel vector")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
