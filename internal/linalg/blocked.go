package linalg

import (
	"errors"
	"fmt"

	"ppcd/internal/ff64"
)

// This file is the blocked, cache-aware elimination path behind the rekey
// engine's null-space solves. The reference path (linalg.go) is textbook
// Gauss–Jordan to reduced row-echelon form: for an n×n shard it makes n
// passes over the whole matrix, so past L2-sized shards every pass streams
// from memory, and every inner multiply pays a full 128-bit modular
// reduction. The blocked path restructures the same elimination as a panel
// factorization:
//
//   - Pivoting and elimination run within a narrow panel of panelWidth
//     columns (hot in cache), producing the panel's pivots and storing each
//     row's NEGATED multipliers in place below the pivots.
//   - The trailing columns then receive all of the panel's rank-1 updates in
//     one sweep per row: products accumulate into 128-bit (hi,lo) pairs
//     (ff64.VecMulAcc) and are reduced ONCE per element per panel instead of
//     once per multiply. panelWidth ≤ ff64.MaxVecMulAcc keeps the
//     accumulators from overflowing.
//
// The result is an (unnormalized) row-echelon form rather than RREF; kernel
// sampling substitutes back from the last pivot upward, which costs
// O(n·rank) per sample instead of folding the elimination work of a full
// Gauss–Jordan. Forward work drops from ~n³/2 fused multiply-reduces to
// ~n³/3 multiply-accumulates, and the matrix is streamed once per panel
// instead of once per pivot. Pivot columns — and therefore the sampled
// kernel distribution — are identical to the reference path: for a fixed
// free-column coefficient vector both parameterizations determine the same
// unique kernel element, which is what the differential tests pin.

// panelWidth is the panel (block) width of the factorization. It must stay
// ≤ ff64.MaxVecMulAcc so a panel's delayed-reduction accumulators cannot
// overflow; 32 keeps a comfortable margin while the panel (32 columns × 8
// bytes) stays resident in L1 alongside the source row.
const panelWidth = 32

// Workspace holds the reusable scratch of the blocked path: the 128-bit
// accumulator arrays, pivot/free bookkeeping, and an optional matrix backing
// for callers that assemble a throwaway system per solve. A Workspace is
// owned by one goroutine at a time (the engine keeps one per pool worker);
// the zero value is ready to use.
type Workspace struct {
	lo, hi []uint64
	pivots []int
	free   []int
	invs   []ff64.Elem

	matData []ff64.Elem
	mat     Matrix
}

// NewWorkspace returns an empty workspace. Buffers grow on first use and are
// reused across solves.
func NewWorkspace() *Workspace { return &Workspace{} }

// Matrix returns a zeroed rows×cols matrix backed by the workspace's
// reusable buffer. The matrix is valid until the next Matrix call on the
// same workspace; it is meant for assemble-factorize-sample cycles that
// would otherwise allocate a fresh system per solve.
func (ws *Workspace) Matrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	n := rows * cols
	if cap(ws.matData) < n {
		ws.matData = make([]ff64.Elem, n)
	}
	data := ws.matData[:n]
	clear(data)
	ws.mat = Matrix{Rows: rows, Cols: cols, data: data}
	return &ws.mat
}

func (ws *Workspace) accumulators(n int) (hi, lo []uint64) {
	if cap(ws.lo) < n {
		ws.lo = make([]uint64, n)
		ws.hi = make([]uint64, n)
	}
	return ws.hi[:n], ws.lo[:n]
}

// blockedEchelon reduces m in place to unnormalized row-echelon form with
// panel factorization and returns the pivot column of each pivot row in
// order. Entries below a pivot (within its panel's columns) are left holding
// the negated elimination multipliers — dead storage for readers of the
// echelon form, which only ever look at row r from its own pivot column
// rightward. The returned slice is workspace-owned and valid until the next
// factorization through the same workspace; ws.invs receives each pivot's
// inverse in the same order (a pivot entry is final once its panel step has
// run, and back-substitution needs the inverse again).
//
//ppcd:hotpath
func (m *Matrix) blockedEchelon(ws *Workspace) []int {
	rows, cols := m.Rows, m.Cols
	ws.pivots = ws.pivots[:0]
	ws.invs = ws.invs[:0]
	r := 0
	for c0 := 0; c0 < cols && r < rows; c0 += panelWidth {
		c1 := c0 + panelWidth
		if c1 > cols {
			c1 = cols
		}
		panelStart := r

		// Panel factorization: full elimination restricted to the panel's
		// columns. Multipliers land in place below each pivot.
		for c := c0; c < c1 && r < rows; c++ {
			p := -1
			for i := r; i < rows; i++ {
				if m.data[i*cols+c] != ff64.Zero {
					p = i
					break
				}
			}
			if p < 0 {
				continue
			}
			m.swapRows(p, r)
			inv := ff64.MustInv(m.data[r*cols+c])
			src := m.data[r*cols+c+1 : r*cols+c1]
			for i := r + 1; i < rows; i++ {
				ri := m.data[i*cols : i*cols+c1]
				f := ri[c]
				if f == ff64.Zero {
					continue
				}
				nf := ff64.Neg(ff64.Mul(f, inv))
				ri[c] = nf
				for k, sv := range src {
					ri[c+1+k] = ff64.MulAdd(ri[c+1+k], nf, sv)
				}
			}
			ws.pivots = append(ws.pivots, c)
			ws.invs = append(ws.invs, inv)
			r++
		}

		npiv := r - panelStart
		if npiv == 0 || c1 >= cols {
			continue
		}

		// Trailing update: each row absorbs the panel's rank-1 updates with
		// one delayed-reduction sweep, the sources batched four at a time so
		// each accumulator element is loaded once per four multiplies. A row
		// inside the panel block only takes updates from pivots above it;
		// rows below take all npiv.
		hi, lo := ws.accumulators(cols - c1)
		pcols := ws.pivots[len(ws.pivots)-npiv:]
		var fs [panelWidth]ff64.Elem
		var srcs [panelWidth][]ff64.Elem
		for i := panelStart + 1; i < rows; i++ {
			nj := npiv
			if i < panelStart+npiv {
				nj = i - panelStart
			}
			cnt := 0
			for j := 0; j < nj; j++ {
				if f := m.data[i*cols+pcols[j]]; f != ff64.Zero {
					fs[cnt] = f
					srcs[cnt] = m.data[(panelStart+j)*cols+c1 : (panelStart+j+1)*cols]
					cnt++
				}
			}
			if cnt == 0 {
				continue
			}
			row := m.data[i*cols+c1 : (i+1)*cols]
			ff64.VecLoad(hi, lo, row)
			j := 0
			for ; j+4 <= cnt; j += 4 {
				ff64.VecMulAcc4(hi, lo, fs[j], fs[j+1], fs[j+2], fs[j+3], srcs[j], srcs[j+1], srcs[j+2], srcs[j+3])
			}
			for ; j < cnt; j++ {
				ff64.VecMulAcc(hi, lo, fs[j], srcs[j])
			}
			ff64.VecReduce(row, hi, lo)
		}
	}
	return ws.pivots
}

// KernelSampler draws independent random kernel elements of a matrix
// factorized once through Workspace.Factorize. Its bookkeeping lives in the
// workspace, so a later Factorize through the same workspace invalidates it.
type KernelSampler struct {
	m  *Matrix
	ws *Workspace
}

// Factorize reduces m (in place, destroying its contents) with the blocked
// elimination and returns a sampler for its null space. It fails with
// ErrTrivialKernel when the null space is {0}.
func (ws *Workspace) Factorize(m *Matrix) (*KernelSampler, error) {
	pivots := m.blockedEchelon(ws)
	if len(pivots) == m.Cols {
		return nil, ErrTrivialKernel
	}
	ws.free = ws.free[:0]
	next := 0
	for c := 0; c < m.Cols; c++ {
		if next < len(pivots) && pivots[next] == c {
			next++
			continue
		}
		ws.free = append(ws.free, c)
	}
	return &KernelSampler{m: m, ws: ws}, nil
}

// SampleInPlace fills out with a fresh uniformly random non-zero element of
// the kernel: free coordinates are drawn uniformly, pivot coordinates follow
// by back-substitution from the last pivot row upward. This is the same
// kernel-space parameterization the reference RREF path samples from, at
// O(n·rank) per draw with zero allocations.
func (s *KernelSampler) SampleInPlace(out Vector) error {
	m, ws := s.m, s.ws
	cols := m.Cols
	if len(out) != cols {
		return fmt.Errorf("linalg: sample buffer of length %d for %d columns", len(out), cols)
	}
	for attempt := 0; attempt < 64; attempt++ {
		nonzero := false
		for _, fc := range ws.free {
			c, err := ff64.Rand()
			if err != nil {
				return err
			}
			out[fc] = c
			if c != ff64.Zero {
				nonzero = true
			}
		}
		if !nonzero {
			// All-zero coefficients give the zero vector (the pivot part is
			// the unique solution for the free part); resample.
			continue
		}
		for r := len(ws.pivots) - 1; r >= 0; r-- {
			pc := ws.pivots[r]
			row := m.data[r*cols+pc+1 : (r+1)*cols]
			var acc ff64.Elem
			for k, rv := range row {
				if rv != ff64.Zero {
					acc = ff64.MulAdd(acc, rv, out[pc+1+k])
				}
			}
			out[pc] = ff64.Mul(ff64.Neg(acc), ws.invs[r])
		}
		return nil
	}
	return errors.New("linalg: failed to sample non-zero kernel vector")
}

// Rank returns the factorized matrix's rank.
func (s *KernelSampler) Rank() int { return len(s.ws.pivots) }

// FreeCount returns the kernel dimension (columns − rank).
func (s *KernelSampler) FreeCount() int { return len(s.ws.free) }

// RandomKernelVectorBlocked is the blocked counterpart of
// RandomKernelVectorInPlace: it factorizes m in place (destroying its
// contents) and returns one fresh random non-zero kernel element. The
// workspace carries all scratch; repeated solves through one workspace
// allocate only the returned vector.
func (m *Matrix) RandomKernelVectorBlocked(ws *Workspace) (Vector, error) {
	s, err := ws.Factorize(m)
	if err != nil {
		return nil, err
	}
	out := NewVector(m.Cols)
	if err := s.SampleInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}
