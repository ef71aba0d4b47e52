package linalg

import (
	"fmt"
	"slices"
	"testing"

	"ppcd/internal/core/coretest"
	"ppcd/internal/ff64"
)

// randMatrix fills a rows×cols matrix with uniform entries.
func cryptoRandMatrix(t testing.TB, rows, cols int) *Matrix {
	t.Helper()
	m := NewMatrix(rows, cols)
	for i := range m.data {
		v, err := ff64.Rand()
		if err != nil {
			t.Fatal(err)
		}
		m.data[i] = v
	}
	return m
}

// plantDeficiency overwrites some rows with random linear combinations of
// earlier rows, forcing rank ≤ rows − planted.
func plantDeficiency(t testing.TB, m *Matrix, planted int) {
	t.Helper()
	for k := 0; k < planted && m.Rows > 1; k++ {
		dst := m.Rows - 1 - k
		clear(m.data[dst*m.Cols : (dst+1)*m.Cols])
		for src := 0; src < dst; src++ {
			c, err := ff64.Rand()
			if err != nil {
				t.Fatal(err)
			}
			row := m.Row(dst)
			from := m.Row(src)
			for j := range row {
				row[j] = ff64.MulAdd(row[j], c, from[j])
			}
		}
	}
}

// shardMatrix mimics the engine's shard systems: n×(n+1) with an all-ones
// first column and random hash entries elsewhere.
func shardMatrix(t testing.TB, n int) *Matrix {
	t.Helper()
	m := cryptoRandMatrix(t, n, n+1)
	for i := 0; i < n; i++ {
		m.Set(i, 0, ff64.One)
	}
	return m
}

func TestBlockedEchelonPivotsMatchRREF(t *testing.T) {
	shapes := []struct{ rows, cols, planted int }{
		{1, 2, 0}, {3, 4, 0}, {7, 8, 0}, {8, 8, 0},
		{31, 32, 0}, {32, 33, 0}, {33, 40, 0}, {40, 33, 0},
		{65, 70, 0}, {64, 100, 0}, {100, 64, 0},
		{20, 21, 5}, {40, 41, 13}, {70, 71, 35}, {33, 40, 33},
	}
	ws := NewWorkspace()
	for _, sh := range shapes {
		m := cryptoRandMatrix(t, sh.rows, sh.cols)
		plantDeficiency(t, m, sh.planted)
		ref := m.Clone()
		refPivots := ref.rref()
		gotPivots := m.Clone().blockedEchelon(ws, 0, 0)
		if len(gotPivots) != len(refPivots) {
			t.Fatalf("%dx%d planted=%d: blocked rank %d, reference rank %d",
				sh.rows, sh.cols, sh.planted, len(gotPivots), len(refPivots))
		}
		for i := range gotPivots {
			if gotPivots[i] != refPivots[i] {
				t.Fatalf("%dx%d planted=%d: pivot %d at column %d, reference %d",
					sh.rows, sh.cols, sh.planted, i, gotPivots[i], refPivots[i])
			}
		}
	}
}

func TestBlockedKernelSamplesAreKernelElements(t *testing.T) {
	shapes := []struct{ rows, cols, planted int }{
		{1, 2, 0}, {5, 6, 0}, {31, 32, 0}, {32, 33, 0}, {33, 40, 0},
		{64, 65, 0}, {65, 96, 0}, {96, 97, 40}, {40, 41, 12}, {50, 80, 50},
	}
	ws := NewWorkspace()
	for _, sh := range shapes {
		m := cryptoRandMatrix(t, sh.rows, sh.cols)
		plantDeficiency(t, m, sh.planted)
		orig := m.Clone()
		wantFree := sh.cols - orig.Rank()

		s, err := ws.Factorize(m)
		if err != nil {
			t.Fatalf("%dx%d planted=%d: %v", sh.rows, sh.cols, sh.planted, err)
		}
		if s.FreeCount() != wantFree {
			t.Fatalf("%dx%d planted=%d: kernel dimension %d, want %d",
				sh.rows, sh.cols, sh.planted, s.FreeCount(), wantFree)
		}
		out := NewVector(sh.cols)
		for draw := 0; draw < 3; draw++ {
			if err := s.SampleInPlace(out); err != nil {
				t.Fatal(err)
			}
			if out.IsZero() {
				t.Fatalf("%dx%d planted=%d: sampled the zero vector", sh.rows, sh.cols, sh.planted)
			}
			prod, err := orig.MulVec(out)
			if err != nil {
				t.Fatal(err)
			}
			if !prod.IsZero() {
				t.Fatalf("%dx%d planted=%d: A·v ≠ 0", sh.rows, sh.cols, sh.planted)
			}
		}
	}
}

func TestBlockedTrivialKernel(t *testing.T) {
	// A square full-rank system has only the trivial kernel; both paths must
	// agree on the failure.
	m := cryptoRandMatrix(t, 16, 16)
	if m.Rank() != 16 {
		t.Skip("random square matrix unexpectedly singular")
	}
	ws := NewWorkspace()
	if _, err := ws.Factorize(m.Clone()); err != ErrTrivialKernel {
		t.Fatalf("Factorize error = %v, want ErrTrivialKernel", err)
	}
	if _, err := m.Clone().RandomKernelVectorInPlace(); err != ErrTrivialKernel {
		t.Fatalf("reference error = %v, want ErrTrivialKernel", err)
	}
}

func TestWorkspaceReuseAcrossShapes(t *testing.T) {
	// One workspace must serve back-to-back solves of different shapes (the
	// engine's per-worker reuse pattern), including workspace-backed matrices.
	ws := NewWorkspace()
	for _, n := range []int{40, 7, 96, 33, 1, 64} {
		src := shardMatrix(t, n)
		work := ws.Matrix(n, n+1)
		copy(work.data, src.data)
		v, err := work.RandomKernelVectorBlocked(ws)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		prod, err := src.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		if !prod.IsZero() || v.IsZero() {
			t.Fatalf("n=%d: bad kernel sample from reused workspace", n)
		}
	}
}

// TestStripedEchelonMatchesSerial holds the striped trailing update to the
// serial one bit for bit: the echelon form (multipliers included), the pivots
// and their inverses. The striped runs split every panel, with one helper and
// with more helpers than cores, and once at the production threshold; the
// shapes are square, wide, tall, rank-deficient, and one with a zero column
// inside a panel, so a panel block holds fewer pivots than columns.
func TestStripedEchelonMatchesSerial(t *testing.T) {
	type shape struct {
		name string
		m    *Matrix
	}
	var shapes []shape
	for _, sh := range []struct{ rows, cols int }{{300, 301}, {512, 513}, {400, 300}, {260, 700}} {
		for _, planted := range []int{0, 37} {
			m := cryptoRandMatrix(t, sh.rows, sh.cols)
			plantDeficiency(t, m, planted)
			shapes = append(shapes, shape{fmt.Sprintf("%dx%d planted=%d", sh.rows, sh.cols, planted), m})
		}
	}
	zeroCol := cryptoRandMatrix(t, 300, 301)
	for i := 0; i < zeroCol.Rows; i++ {
		zeroCol.Set(i, 40, ff64.Zero)
	}
	shapes = append(shapes, shape{"300x301 zero column 40", zeroCol})

	for _, sh := range shapes {
		serial := sh.m.Clone()
		wsSerial := NewWorkspace()
		want := slices.Clone(serial.blockedEchelon(wsSerial, 0, 0))
		for _, run := range []struct{ helpers, minWork int }{{1, 0}, {3, 0}, {1, splitWork}} {
			striped := sh.m.Clone()
			ws := NewWorkspace()
			got := striped.blockedEchelon(ws, run.helpers, run.minWork)
			switch {
			case !slices.Equal(got, want):
				t.Fatalf("%s, %d helpers, split at %d: pivots differ from the serial path", sh.name, run.helpers, run.minWork)
			case !slices.Equal(ws.invs, wsSerial.invs):
				t.Fatalf("%s, %d helpers, split at %d: pivot inverses differ from the serial path", sh.name, run.helpers, run.minWork)
			case !slices.Equal(striped.data, serial.data):
				t.Fatalf("%s, %d helpers, split at %d: echelon form differs from the serial path", sh.name, run.helpers, run.minWork)
			}
		}
	}
}

// unblockedEchelon is the elimination blockedEchelon restructures, one pivot
// at a time over whole rows with a reduction per product: the same pivots,
// inverses and row swaps, and the same echelon form with the negated
// multipliers stored below each pivot.
func unblockedEchelon(m *Matrix) (pivots []int, invs []ff64.Elem) {
	r := 0
	for c := 0; c < m.Cols && r < m.Rows; c++ {
		p := r
		for p < m.Rows && m.At(p, c) == ff64.Zero {
			p++
		}
		if p == m.Rows {
			continue
		}
		m.swapRows(p, r)
		inv := ff64.MustInv(m.At(r, c))
		src := m.Row(r)
		for i := r + 1; i < m.Rows; i++ {
			ri := m.Row(i)
			if ri[c] == ff64.Zero {
				continue
			}
			nf := ff64.Neg(ff64.Mul(ri[c], inv))
			ri[c] = nf
			for k := c + 1; k < m.Cols; k++ {
				ri[k] = ff64.MulAdd(ri[k], nf, src[k])
			}
		}
		pivots, invs = append(pivots, c), append(invs, inv)
		r++
	}
	return pivots, invs
}

// TestSubPanelShapes holds blockedEchelon to the unblocked elimination word
// for word, and its pivots to the reference RREF, on the shapes a sub-panel
// boundary could get wrong: a column that loses its pivot in the middle of a
// sub-panel, zero columns on both sides of a sub-panel edge and of a panel
// edge, rows that run out inside a sub-panel, fewer rows than a sub-panel,
// and a planted row deficiency, serially and striped.
func TestSubPanelShapes(t *testing.T) {
	type shape struct {
		name string
		m    *Matrix
	}
	// dependentCol makes column c a random combination of the columns
	// before it, so no row can pivot there.
	dependentCol := func(m *Matrix, c int) {
		for i := range m.Rows {
			row := m.Row(i)
			row[c] = ff64.Zero
			for j := range c {
				row[c] = ff64.MulAdd(row[c], ff64.Elem(j*7919+1), row[j])
			}
		}
	}
	zeroCols := func(m *Matrix, cs ...int) {
		for _, c := range cs {
			for i := range m.Rows {
				m.Set(i, c, ff64.Zero)
			}
		}
	}
	var shapes []shape
	for _, sh := range []struct{ rows, cols int }{{40, 41}, {100, 101}, {70, 140}} {
		m := cryptoRandMatrix(t, sh.rows, sh.cols)
		dependentCol(m, subWidth+subWidth/2)
		dependentCol(m, panelWidth+3)
		shapes = append(shapes, shape{fmt.Sprintf("%dx%d pivotless columns %d, %d", sh.rows, sh.cols, subWidth+subWidth/2, panelWidth+3), m})

		m = cryptoRandMatrix(t, sh.rows, sh.cols)
		zeroCols(m, subWidth-1, subWidth, panelWidth-1, panelWidth, panelWidth+subWidth)
		shapes = append(shapes, shape{fmt.Sprintf("%dx%d zero columns at the edges", sh.rows, sh.cols), m})

		m = cryptoRandMatrix(t, sh.rows, sh.cols)
		plantDeficiency(t, m, sh.rows/3)
		shapes = append(shapes, shape{fmt.Sprintf("%dx%d planted=%d", sh.rows, sh.cols, sh.rows/3), m})
	}
	for _, sh := range []struct{ rows, cols int }{{1, 9}, {3, 9}, {5, 40}, {subWidth - 1, 70}, {subWidth + 3, 90}, {panelWidth + 4, 90}, {36, 37}} {
		shapes = append(shapes, shape{fmt.Sprintf("%dx%d", sh.rows, sh.cols), cryptoRandMatrix(t, sh.rows, sh.cols)})
	}
	ws := NewWorkspace()
	for _, sh := range shapes {
		want := sh.m.Clone()
		wantPivots, wantInvs := unblockedEchelon(want)
		if refPivots := sh.m.Clone().rref(); !slices.Equal(refPivots, wantPivots) {
			t.Fatalf("%s: the unblocked elimination's pivots %v differ from RREF's %v", sh.name, wantPivots, refPivots)
		}
		for _, helpers := range []int{0, 2} {
			got := sh.m.Clone()
			pivots := got.blockedEchelon(ws, helpers, 0)
			switch {
			case !slices.Equal(pivots, wantPivots):
				t.Fatalf("%s, %d helpers: pivots %v, want %v", sh.name, helpers, pivots, wantPivots)
			case !slices.Equal(ws.invs, wantInvs):
				t.Fatalf("%s, %d helpers: pivot inverses differ", sh.name, helpers)
			case !slices.Equal(got.data, want.data):
				t.Fatalf("%s, %d helpers: echelon form differs from the unblocked elimination", sh.name, helpers)
			}
		}
	}
}

// TestFactorizeAllocs pins what a warm factorization allocates: nothing at
// shard size, where no panel splits, and at N = 512 one goroutine per helper
// and the channel that hands them panels — within the helpers + 2 budget.
func TestFactorizeAllocs(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	for _, c := range []struct{ n, workers, max int }{{128, 3, 0}, {512, 3, 2 + 2}, {512, 1, 0}} {
		src := shardMatrix(t, c.n)
		ws := NewWorkspace()
		ws.Workers = c.workers // AllocsPerRun runs at GOMAXPROCS 1
		work := NewMatrix(c.n, c.n+1)
		factorize := func() {
			copy(work.data, src.data)
			if _, err := ws.Factorize(work); err != nil {
				t.Fatal(err)
			}
		}
		factorize()
		got := testing.AllocsPerRun(5, factorize)
		t.Logf("%d×%d on %d workers: %.0f allocations", c.n, c.n+1, c.workers, got)
		if got > float64(c.max) {
			t.Errorf("%d×%d on %d workers: %.0f allocations per factorization, want ≤ %d", c.n, c.n+1, c.workers, got, c.max)
		}
	}
}

func TestInPlaceVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{10, 20, ff64.Elem(ff64.Modulus - 1)}
	sum, err := v.Add(w)
	if err != nil {
		t.Fatal(err)
	}
	got := v.Clone()
	if err := got.AddInPlace(w); err != nil {
		t.Fatal(err)
	}
	for i := range sum {
		if got[i] != sum[i] {
			t.Fatalf("AddInPlace[%d] = %v, want %v", i, got[i], sum[i])
		}
	}
	if err := got.AddInPlace(Vector{1}); err == nil {
		t.Fatal("AddInPlace accepted mismatched lengths")
	}
	c := ff64.Elem(12345)
	scaled := v.Scale(c)
	got = v.Clone()
	got.ScaleInPlace(c)
	for i := range scaled {
		if got[i] != scaled[i] {
			t.Fatalf("ScaleInPlace[%d] = %v, want %v", i, got[i], scaled[i])
		}
	}
}

// The acceptance benchmarks: blocked vs reference on engine-shaped 512×513
// shard systems (one solve = factorize + one kernel sample).

func benchSolve(b *testing.B, n int, blocked bool) {
	src := shardMatrix(b, n)
	ws := NewWorkspace()
	work := NewMatrix(n, n+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.data, src.data)
		var err error
		if blocked {
			_, err = work.RandomKernelVectorBlocked(ws)
		} else {
			_, err = work.RandomKernelVectorInPlace()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceSolve512(b *testing.B) { benchSolve(b, 512, false) }
func BenchmarkBlockedSolve512(b *testing.B)   { benchSolve(b, 512, true) }
func BenchmarkReferenceSolve128(b *testing.B) { benchSolve(b, 128, false) }
func BenchmarkBlockedSolve128(b *testing.B)   { benchSolve(b, 128, true) }
