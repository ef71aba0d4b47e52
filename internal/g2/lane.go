package g2

// lane.go is the lane-parallel exponentiation engine. It advances L
// independent scalar multiplications in lock-step — every lane doubles on
// the same schedule, lanes add their wNAF table entry when their digit is
// non-zero — and amortizes the dominant cost of a group operation, the
// field inversion, across lanes with Montgomery's batch-inversion trick
// (ff128.InvBatch: one Fermat inversion + 3(L−1) multiplications).
//
// The group operation itself is the explicit genus-2 group law: Lange's
// affine formulas for the generic addition (both inputs with monic
// degree-2 u, coprime) and the generic doubling, straight-line ff128
// arithmetic with no polynomial in sight. Both are split around their one
// inversion. Phase 1 computes the resultant r of the two u's (for a
// doubling, of u and 2v) and s' = s₁x + s₀, the r-scaled quotient that
// composes the divisors; phase 2 takes ζ = 1/(r·s₁), recovers 1/s₁, s₁/r
// and r/s₁ from it and finishes the reduced divisor. A generic lane thus
// costs exactly one slot of the batch inversion and 25 field
// multiplications for an addition, 29 for a doubling (the generic-polynomial
// Cantor step they replace spent about 104). Non-generic shapes (degree-<2
// inputs, non-coprime u's, s₁ = 0, i.e. a result of degree < 2) fall back
// to the full Cantor path addCantor (fast.go), which also serves as the
// in-package differential reference.
//
// The operands are fdiv values, whose four coefficients u1, u0, v1, v0 are
// exactly what the formulas read and write. The scalar entry point add()
// runs the same two phases around a single ff128.Inv; it is the group
// operation behind Op, exp and the fixed-base tables, and it cuts the ~5
// inversions of addCantor to one.

import (
	"math/big"
	"runtime"
	"sync/atomic"

	"ppcd/internal/core"
	"ppcd/internal/ff128"
)

// laneLanes / laneInvBatches are cheap global telemetry for the lane
// kernel: total lanes processed by LaneExp and total batched inversions
// performed. ppcd-bench -register surfaces them so CI can assert the lane
// path was actually exercised.
var (
	laneLanes      atomic.Uint64
	laneInvBatches atomic.Uint64
)

// LaneStats reports the total lanes processed by LaneExp and the total
// batch inversions performed by the lane kernel since process start.
func LaneStats() (lanes, invBatches uint64) {
	return laneLanes.Load(), laneInvBatches.Load()
}

// laneKind classifies one lane of a combine step after phase 1.
type laneKind uint8

const (
	laneDirect   laneKind = iota // result known without field arithmetic
	laneGeneric                  // deferred form: needs one inverted scalar
	laneFallback                 // non-generic shape: full Cantor path
)

// laneOp carries one lane's state between the two phases of a combine
// step. Phase 1 reads both operands completely (so the destination slice
// may alias either input), phase 2 only consumes this struct plus the
// batch-inverted z. With D₁ = (x²+a₁x+a₀, c₁x+c₀) and D₂ = (x²+b₁x+b₀,
// d₁x+d₀) — D₂ = D₁ for a doubling — a generic lane keeps r, s' = s₁x+s₀,
// z₁ = a₁−b₁ and the coefficients phase 2 still reads.
type laneOp struct {
	kind laneKind
	out  fdiv // laneDirect: the final result
	a, b fdiv // laneFallback: operand copies

	r, s1, s0 ff128.Elem
	z         ff128.Elem // r·s₁ — the single element this lane inverts
	z1        ff128.Elem
	a1, a0    ff128.Elem
	b1, b0    ff128.Elem
	d1, d0    ff128.Elem
}

// fallback marks the lane for the full Cantor path.
func (op *laneOp) fallback(a, b *fdiv) {
	op.kind, op.a, op.b = laneFallback, *a, *b
}

// phase1 classifies a + b and, for the generic shapes, computes everything
// up to (but not including) the field inversion: 10 multiplications for an
// addition, 14 for a doubling. It copies what it keeps, so callers may
// overwrite the operands before phase2.
//
//ppcd:hotpath
func (c *Curve) phase1(op *laneOp, a, b *fdiv) {
	f := c.fld
	switch {
	case *a == fdiv{}:
		op.kind, op.out = laneDirect, *b
		return
	case *b == fdiv{}:
		op.kind, op.out = laneDirect, *a
		return
	case a.deg != 2 || b.deg != 2:
		op.fallback(a, b)
		return
	}
	a1, a0, c1, c0 := a.u1, a.u0, a.v1, a.v0
	b1, b0, d1, d0 := b.u1, b.u0, b.v1, b.v0
	z1 := f.Sub(a1, b1)
	z2 := f.Sub(b0, a0)

	// inv = i₁x + i₀ and k = k₁x + k₀ with s' = k·inv mod u₁; r = res(u₁, ·).
	var r, i0, i1, k0, k1 ff128.Elem
	if z1.IsZero() && z2.IsZero() {
		// u1 == u2: inverse pair, doubling, or a shared-root pair.
		t1, t0 := f.Add(c1, d1), f.Add(c0, d0)
		if t1.IsZero() && t0.IsZero() {
			op.kind, op.out = laneDirect, fdiv{}
			return
		}
		if !c1.Equal(d1) || !c0.Equal(d0) {
			// v1 ≠ ±v2 over the same u: mixed-sign roots, full Cantor.
			op.fallback(a, b)
			return
		}
		// Doubling: inv ≡ r/(2v) and k = (f − v²)/u mod u.
		f4, f3, f2 := c.f.c[4], c.f.c[3], c.f.c[2]
		w0, w1 := f.Sq(c1), f.Sq(a1)
		i0, i1 = f.Sub(t0, f.Mul(a1, t1)), f.Neg(t1)
		r = f.Add(f.Double(f.Double(f.Mul(a0, w0))), f.Mul(t0, i0))
		w3, w4 := f.Add(f3, w1), f.Double(a0)
		f4a1 := f.Mul(f4, a1)
		k1 = f.Sub(f.Add(f.Double(f.Sub(w1, f4a1)), w3), w4)
		k0 = f.Sub(f.Sub(f.Add(f.Mul(a1, f.Add(f.Sub(f.Double(w4), w3), f4a1)), f2), w0), f.Double(f.Mul(f4, a0)))
	} else {
		// Addition: inv ≡ r/u₂ mod u₁ and k = v₁ − v₂.
		z3 := f.Add(f.Mul(a1, z1), z2)
		r = f.Add(f.Mul(z2, z3), f.Mul(f.Sq(z1), a0))
		i0, i1 = z3, z1
		k0, k1 = f.Sub(c0, d0), f.Sub(c1, d1)
	}
	m0, m1 := f.Mul(i0, k0), f.Mul(i1, k1)
	s1 := f.Sub(f.Sub(f.Mul(f.Add(i0, i1), f.Add(k0, k1)), m0), f.Mul(m1, f.Add(f.One(), a1)))
	z := f.Mul(r, s1)
	if z.IsZero() {
		// r = 0: the u's share a root (for a doubling, a ramification point
		// divides u). s₁ = 0: the sum has degree < 2. Rare; Cantor's.
		op.fallback(a, b)
		return
	}
	op.kind = laneGeneric
	op.r, op.s1, op.s0, op.z = r, s1, f.Sub(m0, f.Mul(a0, m1)), z
	op.z1, op.a1, op.a0 = z1, a1, a0
	op.b1, op.b0, op.d1, op.d0 = b1, b0, d1, d0
}

// phase2 finishes a generic lane into dst given zinv = 1/(r·s₁): s' made
// monic (x + σ), l = (x + σ)·u₂, Lange's closed forms for the reduced u' and
// v' = −(l·s₁/r + v₂) mod u' — 15 multiplications, no further inversions.
//
//ppcd:hotpath
func (c *Curve) phase2(dst *fdiv, op *laneOp, zinv ff128.Elem) {
	f := c.fld
	w2 := f.Mul(op.r, zinv)        // 1/s₁
	w3 := f.Mul(f.Sq(op.s1), zinv) // s₁/r
	w4 := f.Mul(op.r, w2)          // r/s₁
	w5 := f.Sq(w4)
	sg := f.Mul(op.s0, w2) // s'/s₁ = x + σ
	l2 := f.Add(op.b1, sg)
	l1 := f.Add(f.Mul(op.b1, sg), op.b0)
	l0 := f.Mul(op.b0, sg)
	u0 := f.Sub(f.Mul(f.Sub(sg, op.a1), f.Sub(sg, op.z1)), op.a0)
	u0 = f.Add(f.Add(u0, l1), f.Double(f.Mul(op.d1, w4)))
	u0 = f.Add(u0, f.Mul(f.Sub(f.Add(f.Double(op.b1), op.z1), c.f.c[4]), w5))
	u1 := f.Sub(f.Sub(f.Double(sg), op.z1), w5)
	t := f.Sub(l2, u1)
	v1 := f.Sub(f.Mul(f.Sub(f.Add(f.Mul(u1, t), u0), l1), w3), op.d1)
	v0 := f.Sub(f.Mul(f.Sub(f.Mul(u0, t), l0), w3), op.d0)

	*dst = fdiv{deg: 2, u1: u1, u0: u0, v1: v1, v0: v0}
}

// add is the scalar group operation behind Op, exp and the fixed-base
// tables: the same two phases as the lane kernel around a single ff128.Inv, which
// replaces the ~5 inversions of the full Cantor path for generic inputs.
//
//ppcd:hotpath
func (c *Curve) add(d1, d2 fdiv) fdiv {
	var op laneOp
	c.phase1(&op, &d1, &d2)
	switch op.kind {
	case laneDirect:
		return op.out
	case laneFallback:
		return c.addCantor(d1, d2)
	}
	zinv, err := c.fld.Inv(op.z)
	if err != nil {
		return c.addCantor(d1, d2) // unreachable: z = r·s₁, both non-zero
	}
	var out fdiv
	c.phase2(&out, &op, zinv)
	return out
}

// laneCombine computes dst[i] = a[i] + b[i] for every lane with one batch
// inversion covering all generic lanes. dst may alias a and/or b: phase 1
// copies everything it needs before any write. ops and zs are caller
// scratch (len(ops) ≥ len(dst), cap(zs) ≥ len(dst)) so the per-position
// calls inside laneExp do not allocate.
//
//ppcd:hotpath
func (c *Curve) laneCombine(dst, a, b []fdiv, ops []laneOp, zs []ff128.Elem) {
	zs = zs[:0]
	for i := range dst {
		c.phase1(&ops[i], &a[i], &b[i])
		if ops[i].kind == laneGeneric {
			zs = append(zs, ops[i].z)
		}
	}
	if len(zs) > 0 {
		if err := c.fld.InvBatch(zs); err != nil {
			// Unreachable (every z = r·s₁ is non-zero), but never trust a
			// rejected batch: degrade those lanes to the scalar path.
			for i := range dst {
				if ops[i].kind == laneGeneric {
					ops[i].fallback(&a[i], &b[i])
				}
			}
		} else {
			laneInvBatches.Add(1)
		}
	}
	k := 0
	for i := range dst {
		switch ops[i].kind {
		case laneDirect:
			dst[i] = ops[i].out
		case laneGeneric:
			c.phase2(&dst[i], &ops[i], zs[k])
			k++
		case laneFallback:
			dst[i] = c.addCantor(ops[i].a, ops[i].b)
		}
	}
}

// laneChunkSize caps the lanes advanced by one lock-step loop. Chunks keep
// the per-position scratch cache-resident and give core.Parallel units to
// fan out across cores when a cross-envelope batch brings hundreds of
// lanes. 64 lanes already amortize the batch inversion to ~2 muls/lane.
const laneChunkSize = 64

// laneExp computes out[i] = ks[i]·bases[i] (or ks[0]·bases[i] when a
// single scalar drives every lane) in lock-step. Digit schedules are
// deduped by *big.Int identity, so the compose path's shared y is
// decomposed once; if every base is the same divisor (the open path's η)
// one odd-multiples table is shared by all lanes.
func (c *Curve) laneExp(bases []fdiv, ks []*big.Int) []fdiv {
	n := len(bases)
	out := make([]fdiv, n)
	if n == 0 {
		return out
	}
	digitsFor := make([][]int8, n)
	memo := make(map[*big.Int][]int8, 1)
	for i := 0; i < n; i++ {
		k := ks[0]
		if len(ks) > 1 {
			k = ks[i]
		}
		dg, ok := memo[k]
		if !ok {
			kk := new(big.Int).Mod(k, c.order)
			if kk.Sign() > 0 {
				dg = wnafDigits(kk, wnafWidth)
			}
			memo[k] = dg
		}
		digitsFor[i] = dg
	}
	var sharedTab *[8]fdiv
	if n > 1 {
		same := true
		for i := 1; i < n && same; i++ {
			same = bases[0] == bases[i]
		}
		if same {
			var tab [8]fdiv
			tab[0] = bases[0]
			d2 := c.add(bases[0], bases[0])
			for j := 1; j < len(tab); j++ {
				tab[j] = c.add(tab[j-1], d2)
			}
			sharedTab = &tab
		}
	}
	chunks := (n + laneChunkSize - 1) / laneChunkSize
	if workers := runtime.GOMAXPROCS(0); chunks > 1 && workers > 1 {
		core.Parallel(workers, chunks, func(ci int) {
			lo := ci * laneChunkSize
			hi := min(lo+laneChunkSize, n)
			c.laneExpChunk(out[lo:hi], bases[lo:hi], digitsFor[lo:hi], sharedTab)
		})
	} else {
		c.laneExpChunk(out, bases, digitsFor, sharedTab)
	}
	return out
}

// laneExpChunk runs the lock-step double-and-add loop for one chunk of
// lanes. Two lane-combines per wNAF position — one doubling pass over
// every lane, one addition pass when any lane has a non-zero digit — so
// the whole chunk pays two batch inversions per position instead of two
// Fermat inversions per lane per position.
func (c *Curve) laneExpChunk(out, bases []fdiv, digitsFor [][]int8, sharedTab *[8]fdiv) {
	n := len(bases)
	ops := make([]laneOp, n)
	zs := make([]ff128.Elem, 0, n)
	var tabs [][8]fdiv
	if sharedTab == nil {
		// Lane-batched odd-multiples tables: 8 combine passes build all n
		// tables (d, 3d, …, 15d per lane) instead of 8·n scalar adds.
		tabs = make([][8]fdiv, n)
		d2 := make([]fdiv, n)
		c.laneCombine(d2, bases, bases, ops, zs)
		prev := make([]fdiv, n)
		copy(prev, bases)
		cur := make([]fdiv, n)
		for i := range tabs {
			tabs[i][0] = bases[i]
		}
		for j := 1; j < 8; j++ {
			c.laneCombine(cur, prev, d2, ops, zs)
			for i := range cur {
				tabs[i][j] = cur[i]
			}
			prev, cur = cur, prev
		}
	}
	maxLen := 0
	for _, dg := range digitsFor {
		if len(dg) > maxLen {
			maxLen = len(dg)
		}
	}
	accs := out
	clear(accs)
	addends := make([]fdiv, n)
	for pos := maxLen - 1; pos >= 0; pos-- {
		c.laneCombine(accs, accs, accs, ops, zs)
		any := false
		for i := 0; i < n; i++ {
			dg := int8(0)
			if d := digitsFor[i]; pos < len(d) {
				dg = d[pos]
			}
			switch {
			case dg > 0:
				if sharedTab != nil {
					addends[i] = sharedTab[(dg-1)/2]
				} else {
					addends[i] = tabs[i][(dg-1)/2]
				}
				any = true
			case dg < 0:
				if sharedTab != nil {
					addends[i] = c.neg(sharedTab[(-dg-1)/2])
				} else {
					addends[i] = c.neg(tabs[i][(-dg-1)/2])
				}
				any = true
			default:
				addends[i] = fdiv{}
			}
		}
		if any {
			c.laneCombine(accs, accs, addends, ops, zs)
		}
	}
}

// LaneExp returns bases[i]^ks[i] for every lane — bases[i]^ks[0] when one
// scalar drives every lane (the OCBE compose path: every σ of one envelope
// shares y) — through the lock-step batch-inversion kernel. It returns
// exactly the elements per-lane Exp calls would, and panics if len(ks) is
// neither 1 nor len(bases).
func (c *Curve) LaneExp(bases []*Divisor, ks []*big.Int) []*Divisor {
	n := len(bases)
	if len(ks) != 1 && len(ks) != n {
		panic("g2: LaneExp needs one scalar or one per lane")
	}
	out := make([]*Divisor, n)
	if n == 0 {
		return out
	}
	laneLanes.Add(uint64(n))
	fb := make([]fdiv, n)
	for i, b := range bases {
		fb[i] = b.d
	}
	res := c.laneExp(fb, ks)
	divs := make([]Divisor, n)
	for i := range res {
		divs[i] = Divisor{d: res[i], fld: c.fld}
		out[i] = &divs[i]
	}
	return out
}
