package linalg

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
//     row's NEGATED multipliers in place below the pivots. The panel itself
//     is factorized in sub-panels of subWidth columns: only a sub-panel's
//     own columns are eliminated one product at a time (ff64.MulAdd, a full
//     reduction each); its updates to the rest of the panel go through the
//     same update loop as the trailing columns.
//   - That loop gives each row all of a block's rank-1 updates in one sweep:
//     products accumulate without reduction in an ff64.Accumulator, four
//     sources per pass, and are reduced ONCE per element per block instead
//     of once per multiply. panelWidth ≤ ff64.MaxVecMulAcc keeps the
//     accumulators from overflowing.
//
// The accumulator's body is chosen once, at start-up, by CPUID: AVX-512 IFMA
// assembly (eight elements per instruction in 52-bit limbs) where the CPU
// and OS support it, baseline x86-64 MULQ assembly on other amd64 CPUs, and
// Go under the purego tag or on other architectures. Every body's sums are
// exact, so the choice changes no output.
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
//
// One large system runs on every core. The panel factorization is serial —
// each pivot search depends on the last — but once a panel is done, the rows
// below its block are independent of one another: each reads only its own
// multipliers and the panel block's rows, which the solving goroutine has
// already updated. Past splitWork multiply-accumulates of trailing work, those
// rows are cut into stripes of stripeRows and claimed through an atomic cursor
// by the solving goroutine and up to Workspace.Workers − 1 helper goroutines,
// each with its own accumulator. Every row is updated by the same code
// whichever goroutine claims it, so the echelon form, the pivots, their
// inverses — and every kernel sample for given free coefficients — are
// bit-identical to the serial path. The solving goroutine claims stripes too,
// so no stripe waits for a helper to be scheduled; at the end of a panel it
// waits only for the helpers to report in.

// panelWidth is the panel (block) width of the factorization. It must stay
// ≤ ff64.MaxVecMulAcc so a panel's delayed-reduction accumulators cannot
// overflow; 32 keeps a comfortable margin while the panel (32 columns × 8
// bytes) stays resident in L1 alongside the source row.
const panelWidth = 32

// subWidth is the sub-panel width of a panel's factorization, a divisor of
// panelWidth. A narrower sub-panel leaves less to the scalar elimination and
// more to the update loop, in shorter rows that pay its per-row cost more
// often; 4 measured no faster than 8 on a 128-row solve.
const subWidth = 8

// splitWork is the trailing-update work, in multiply-accumulates, from which a
// panel's rows below its block are striped across goroutines: 2²⁰ of them take
// ≈ 0.4 ms on one core of a 2-vCPU Xeon through the IFMA body (≈ 0.37 ns each,
// Load and Reduce included; ≈ 0.8 ns through the MULQ body), still two orders
// of magnitude above the cost of handing a panel to a helper. The work of a
// panel is (rows below) × (columns right of it) × (pivots in it), a property
// of the input alone. An engine shard never reaches it — at most 96 × 97 × 32
// ≈ 0.3 M at 128 rows — so shard solves run serially; the paper's N = 512
// system splits its first ten panels, which hold 96 % of its trailing-update
// work.
const splitWork = 1 << 20

// stripeRows is how many rows a goroutine claims at a time: small enough that
// the last stripe of a panel leaves no core idle for long, large enough that
// the cursor is touched once per ≈ 10⁵ multiply-accumulates.
const stripeRows = 8

// Workspace holds the reusable scratch of the blocked path: the
// delayed-reduction accumulators (one per goroutine a factorization runs on,
// grown once to the widest system), pivot/free bookkeeping, and an optional
// matrix backing for callers that assemble a throwaway system per solve. A
// Workspace is owned by one goroutine at a time (the engine keeps one per
// pool worker); the zero value is ready to use.
type Workspace struct {
	// Workers bounds the goroutines one factorization runs on, the caller's
	// included: 1 is strictly serial, 0 means GOMAXPROCS. Only a panel with
	// splitWork of trailing work starts any.
	Workers int

	accs    []*ff64.Accumulator // [0] the caller's, then one per helper
	pivots  []int
	free    []int
	invs    []ff64.Elem
	trail   trailing
	sampler KernelSampler

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

// growAccumulators makes sure ws holds n accumulators for rows of at least
// cols entries each.
func (ws *Workspace) growAccumulators(n, cols int) {
	for len(ws.accs) < n {
		ws.accs = append(ws.accs, new(ff64.Accumulator))
	}
	for _, acc := range ws.accs[:n] {
		acc.Grow(cols)
	}
}

// helpers returns how many goroutines beside the caller a factorization
// through ws may stripe over.
func (ws *Workspace) helpers() int {
	w := ws.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w - 1
}

// trailing is one block's update: the matrix, the block's rows [start,
// start+len(pcols)) with their pivot columns, the columns [c1, c2) that
// receive it, and the rows left to update, handed out stripe by stripe
// through next. The block is a sub-panel, updating the rest of its panel, or
// a whole panel, updating the trailing columns.
type trailing struct {
	m      *Matrix
	start  int
	c1, c2 int
	pcols  []int
	next   atomic.Int64 // first row nobody has claimed
	end    int
	done   sync.WaitGroup // helpers still on this panel, or not yet exited
}

// set points t at the block whose pivot rows start at row start, with pivot
// columns pcols, and at the columns [c1, c2).
func (t *trailing) set(start, c1, c2 int, pcols []int) {
	t.start, t.c1, t.c2, t.pcols = start, c1, c2, pcols
}

// update applies the block's rank-1 updates to rows [i0, i1) of columns
// [c1, c2): each row absorbs them in one delayed-reduction sweep of acc, the
// sources batched four at a time so each accumulator element is loaded once
// per four multiplies; a count that is not a multiple of four is padded with
// zero multipliers, which add nothing. A row inside the block takes updates
// only from the pivots above it; a row below takes all of them. It is the one
// update loop of the factorization, run serially or on a stripe.
//
//ppcd:hotpath
func (t *trailing) update(i0, i1 int, acc *ff64.Accumulator) {
	m, cols := t.m, t.m.Cols
	npiv := len(t.pcols)
	var fs [panelWidth]ff64.Elem
	var srcs [panelWidth][]ff64.Elem
	for i := i0; i < i1; i++ {
		nj := min(npiv, i-t.start)
		cnt := 0
		for j := 0; j < nj; j++ {
			if f := m.data[i*cols+t.pcols[j]]; f != ff64.Zero {
				fs[cnt] = f
				srcs[cnt] = m.data[(t.start+j)*cols+t.c1 : (t.start+j)*cols+t.c2]
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		for ; cnt%4 != 0; cnt++ {
			fs[cnt], srcs[cnt] = ff64.Zero, srcs[0]
		}
		row := m.data[i*cols+t.c1 : i*cols+t.c2]
		acc.Load(row)
		for j := 0; j < cnt; j += 4 {
			acc.MulAcc4(fs[j], fs[j+1], fs[j+2], fs[j+3], srcs[j], srcs[j+1], srcs[j+2], srcs[j+3])
		}
		acc.Reduce(row)
	}
}

// claim updates stripes of the panel's rows until none is left unclaimed.
func (t *trailing) claim(acc *ff64.Accumulator) {
	for {
		i := int(t.next.Add(stripeRows)) - stripeRows
		if i >= t.end {
			return
		}
		t.update(i, min(i+stripeRows, t.end), acc)
	}
}

// help is a helper goroutine: each time it is handed the next panel of t, it
// claims stripes with its own accumulator until the panel has none left. It
// reports each panel, and its own exit once panels closes, on t.done.
func help(panels <-chan struct{}, t *trailing, acc *ff64.Accumulator) {
	defer t.done.Done()
	for range panels {
		t.claim(acc)
		t.done.Done()
	}
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
// A panel whose rows below its block carry at least minWork
// multiply-accumulates of trailing update stripes them over the caller and
// up to helpers goroutines, started at the first such panel and gone before
// it returns; helpers ≤ 0 is the serial path. Factorize passes ws.helpers()
// and splitWork; the differential tests force either way.
//
//ppcd:hotpath
func (m *Matrix) blockedEchelon(ws *Workspace, helpers, minWork int) []int {
	rows, cols := m.Rows, m.Cols
	ws.pivots = ws.pivots[:0]
	ws.invs = ws.invs[:0]
	ws.growAccumulators(1, cols)
	acc := ws.accs[0]
	t := &ws.trail
	t.m = m
	var panels chan struct{}
	r := 0
	for c0 := 0; c0 < cols && r < rows; c0 += panelWidth {
		c1 := min(c0+panelWidth, cols)
		panelStart := r

		// Panel factorization, one sub-panel of subWidth columns at a time:
		// full elimination restricted to the sub-panel's columns, with the
		// multipliers landing in place below each pivot, then the
		// sub-panel's updates to the rest of the panel through the update
		// loop.
		for s0 := c0; s0 < c1 && r < rows; s0 += subWidth {
			s1 := min(s0+subWidth, c1)
			subStart := r
			for c := s0; c < s1 && r < rows; c++ {
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
				src := m.data[r*cols+c+1 : r*cols+s1]
				for i := r + 1; i < rows; i++ {
					ri := m.data[i*cols : i*cols+s1]
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
			if r > subStart && s1 < c1 {
				t.set(subStart, s1, c1, ws.pivots[subStart:])
				t.update(subStart+1, rows, acc)
			}
		}

		npiv := r - panelStart
		if npiv == 0 || c1 >= cols {
			continue
		}

		// Trailing update. The rows inside the panel block are the sources of
		// the rows below, so they are brought up to date first, here; the
		// rows below are then independent of one another.
		t.set(panelStart, c1, cols, ws.pivots[panelStart:])
		t.update(panelStart+1, r, acc)
		if helpers <= 0 || (rows-r)*(cols-c1)*npiv < minWork {
			t.update(r, rows, acc)
			continue
		}
		if panels == nil {
			panels = ws.startHelpers(helpers, cols)
		}
		t.next.Store(int64(r))
		t.end = rows
		t.done.Add(helpers)
		for range helpers {
			panels <- struct{}{}
		}
		t.claim(acc)
		t.done.Wait()
	}
	if panels != nil {
		t.done.Add(helpers)
		close(panels)
		t.done.Wait()
	}
	return ws.pivots
}

// startHelpers starts n helper goroutines for one factorization of a matrix
// with cols columns, each with accumulators of its own, and returns the
// channel that hands them the panels of ws.trail; closing it stops them. It
// has a slot per helper, so handing out a panel never blocks.
func (ws *Workspace) startHelpers(n, cols int) chan struct{} {
	ws.growAccumulators(1+n, cols)
	panels := make(chan struct{}, n)
	for _, acc := range ws.accs[1 : 1+n] {
		go help(panels, &ws.trail, acc)
	}
	return panels
}

// KernelSampler draws independent random kernel elements of a matrix
// factorized once through Workspace.Factorize. It lives in the workspace with
// its bookkeeping, so a later Factorize through the same workspace replaces it
// and a warm factorization allocates nothing for it.
type KernelSampler struct {
	m  *Matrix
	ws *Workspace
}

// Factorize reduces m (in place, destroying its contents) with the blocked
// elimination and returns a sampler for its null space. It fails with
// ErrTrivialKernel when the null space is {0}.
func (ws *Workspace) Factorize(m *Matrix) (*KernelSampler, error) {
	pivots := m.blockedEchelon(ws, ws.helpers(), splitWork)
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
	ws.sampler = KernelSampler{m: m, ws: ws}
	return &ws.sampler, nil
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
