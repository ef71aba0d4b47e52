package g2

// This file is the genus-2 arithmetic under the group methods: Cantor's
// algorithm over the fixed-width two-limb field of package ff128, with
// array-backed fixed-degree polynomials as scratch. Every polynomial lives on
// the stack; a full Cantor addition performs zero heap allocations. On top of
// it sit windowed-NAF scalar multiplication for arbitrary bases and
// precomputed fixed-base tables for the long-lived bases (the Jacobian
// generator and Pedersen's g and h). The differential tests pin all of it to
// an independent big-integer Cantor implementation over polyring and ffbig
// (reference_test.go).

import (
	"math/big"

	"ppcd/internal/ff128"
)

// fpCap bounds the coefficient count of an intermediate polynomial. Genus-2
// Cantor needs degree ≤ 6 for every named intermediate (num, f − v²); the
// headroom to 12 covers every transient product inside XGCD.
const fpCap = 13

// fpoly is a fixed-capacity polynomial over ff128: coefficients in
// ascending degree, deg = -1 for the zero polynomial. Entries above deg are
// zero by construction.
type fpoly struct {
	deg int
	c   [fpCap]ff128.Elem
}

func fpZero() fpoly { return fpoly{deg: -1} }

func fpOne(f *ff128.Field) fpoly {
	var p fpoly
	p.c[0] = f.One()
	return p
}

func (p *fpoly) isZero() bool { return p.deg < 0 }

func fpTrim(p *fpoly) {
	for p.deg >= 0 && p.c[p.deg].IsZero() {
		p.c[p.deg] = ff128.Elem{}
		p.deg--
	}
}

func fpAdd(f *ff128.Field, a, b fpoly) fpoly {
	var out fpoly
	n := a.deg
	if b.deg > n {
		n = b.deg
	}
	out.deg = n
	for i := 0; i <= n; i++ {
		var av, bv ff128.Elem
		if i <= a.deg {
			av = a.c[i]
		}
		if i <= b.deg {
			bv = b.c[i]
		}
		out.c[i] = f.Add(av, bv)
	}
	fpTrim(&out)
	return out
}

func fpSub(f *ff128.Field, a, b fpoly) fpoly {
	var out fpoly
	n := a.deg
	if b.deg > n {
		n = b.deg
	}
	out.deg = n
	for i := 0; i <= n; i++ {
		var av, bv ff128.Elem
		if i <= a.deg {
			av = a.c[i]
		}
		if i <= b.deg {
			bv = b.c[i]
		}
		out.c[i] = f.Sub(av, bv)
	}
	fpTrim(&out)
	return out
}

func fpNeg(f *ff128.Field, a fpoly) fpoly {
	out := a
	for i := 0; i <= a.deg; i++ {
		out.c[i] = f.Neg(a.c[i])
	}
	return out
}

func fpMul(f *ff128.Field, a, b fpoly) fpoly {
	var out fpoly
	out.deg = -1
	if a.deg < 0 || b.deg < 0 {
		return out
	}
	n := a.deg + b.deg
	if n >= fpCap {
		panic("g2: fpoly product exceeds fixed capacity")
	}
	out.deg = n
	for i := 0; i <= a.deg; i++ {
		ai := a.c[i]
		if ai.IsZero() {
			continue
		}
		for j := 0; j <= b.deg; j++ {
			out.c[i+j] = f.Add(out.c[i+j], f.Mul(ai, b.c[j]))
		}
	}
	fpTrim(&out)
	return out
}

func fpMulScalar(f *ff128.Field, a fpoly, s ff128.Elem) fpoly {
	var out fpoly
	out.deg = -1
	if a.deg < 0 || s.IsZero() {
		return out
	}
	out.deg = a.deg
	for i := 0; i <= a.deg; i++ {
		out.c[i] = f.Mul(a.c[i], s)
	}
	fpTrim(&out)
	return out
}

// fpDivMod returns quotient and remainder of a by b (b must be non-zero):
// a = b·quo + rem with deg rem < deg b.
func fpDivMod(f *ff128.Field, a, b fpoly) (quo, rem fpoly) {
	if b.deg < 0 {
		panic("g2: fpoly division by zero")
	}
	rem = a
	quo.deg = -1
	if a.deg < b.deg {
		return
	}
	lead := b.c[b.deg]
	monic := lead.Equal(f.One())
	var leadInv ff128.Elem
	if !monic {
		var err error
		leadInv, err = f.Inv(lead)
		if err != nil {
			panic("g2: unreachable: zero leading coefficient") // b is trimmed
		}
	}
	quo.deg = a.deg - b.deg
	for d := a.deg; d >= b.deg; d-- {
		c := rem.c[d]
		if c.IsZero() {
			continue
		}
		factor := c
		if !monic {
			factor = f.Mul(c, leadInv)
		}
		quo.c[d-b.deg] = factor
		for j := 0; j <= b.deg; j++ {
			k := d - b.deg + j
			rem.c[k] = f.Sub(rem.c[k], f.Mul(factor, b.c[j]))
		}
	}
	// All coefficients at or above deg b are eliminated now.
	for i := b.deg; i <= rem.deg && i < fpCap; i++ {
		rem.c[i] = ff128.Elem{}
	}
	rem.deg = b.deg - 1
	fpTrim(&rem)
	fpTrim(&quo)
	return
}

// fpDivExact divides a by b and panics if the division leaves a remainder;
// Cantor's algorithm performs exact divisions only.
func fpDivExact(f *ff128.Field, a, b fpoly) fpoly {
	quo, rem := fpDivMod(f, a, b)
	if !rem.isZero() {
		panic("g2: non-exact fpoly division in Cantor's algorithm")
	}
	return quo
}

func fpMod(f *ff128.Field, a, b fpoly) fpoly {
	_, rem := fpDivMod(f, a, b)
	return rem
}

func fpMonic(f *ff128.Field, a fpoly) fpoly {
	if a.deg < 0 || a.c[a.deg].Equal(f.One()) {
		return a
	}
	inv, err := f.Inv(a.c[a.deg])
	if err != nil {
		panic("g2: unreachable: zero leading coefficient")
	}
	return fpMulScalar(f, a, inv)
}

// fpXGCD returns (d, s, t) with d = gcd(a, b) monic and s·a + t·b = d.
func fpXGCD(f *ff128.Field, a, b fpoly) (d, s, t fpoly) {
	r0, r1 := a, b
	s0, s1 := fpOne(f), fpZero()
	t0, t1 := fpZero(), fpOne(f)
	for r1.deg >= 0 {
		quo, rem := fpDivMod(f, r0, r1)
		r0, r1 = r1, rem
		s0, s1 = s1, fpSub(f, s0, fpMul(f, quo, s1))
		t0, t1 = t1, fpSub(f, t0, fpMul(f, quo, t1))
	}
	if r0.deg < 0 {
		return r0, s0, t0
	}
	lead := r0.c[r0.deg]
	if lead.Equal(f.One()) {
		return r0, s0, t0
	}
	inv, err := f.Inv(lead)
	if err != nil {
		panic("g2: unreachable: zero leading coefficient")
	}
	return fpMulScalar(f, r0, inv), fpMulScalar(f, s0, inv), fpMulScalar(f, t0, inv)
}

// fdiv is a reduced divisor in Mumford representation: u = x² + u1·x + u0,
// v = v1·x + v0 when deg = 2; u = x + u0, v = v0 when deg = 1; u = 1, v = 0
// when deg = 0. u is monic, so these four coefficients are all there is, and
// every coefficient above the degree is zero: the zero value is the
// identity, and two divisors are equal exactly when they are ==.
type fdiv struct {
	deg            int
	u1, u0, v1, v0 ff128.Elem
}

// lift unpacks d into scratch polynomials for the Cantor path.
//
//ppcd:hotpath
func (c *Curve) lift(d fdiv) (u, v fpoly) {
	u.deg, u.c[d.deg] = d.deg, c.fld.One()
	switch d.deg {
	case 2:
		u.c[1] = d.u1
		fallthrough
	case 1:
		u.c[0] = d.u0
	}
	v.deg = 1
	v.c[0], v.c[1] = d.v0, d.v1
	fpTrim(&v)
	return u, v
}

// pack is lift's inverse for a reduced pair: u monic of degree ≤ 2 and
// deg v < deg u.
//
//ppcd:hotpath
func pack(u, v fpoly) fdiv {
	d := fdiv{deg: u.deg, v1: v.c[1], v0: v.c[0]}
	switch u.deg {
	case 2:
		d.u1 = u.c[1]
		fallthrough
	case 1:
		d.u0 = u.c[0]
	}
	return d
}

// neg returns the group inverse (u, −v mod u); deg v < deg u always holds
// for reduced divisors, so the mod is a plain coefficient negation.
func (c *Curve) neg(d fdiv) fdiv {
	d.v1, d.v0 = c.fld.Neg(d.v1), c.fld.Neg(d.v0)
	return d
}

// addCantor is Cantor composition + reduction over fixed-width arithmetic.
// It pays ~5 field inversions per call (inside fpXGCD / fpDivMod / fpMonic)
// and serves the non-generic shapes the one-inversion path in lane.go does
// not cover — and as its in-package differential reference.
//
//ppcd:hotpath
func (c *Curve) addCantor(a, b fdiv) fdiv {
	if a == (fdiv{}) {
		return b
	}
	if b == (fdiv{}) {
		return a
	}
	f := c.fld
	u1, v1 := c.lift(a)
	u2, v2 := c.lift(b)

	// Composition.
	g1, e1, e2 := fpXGCD(f, u1, u2)
	vSum := fpAdd(f, v1, v2)
	d, c1, c2 := fpXGCD(f, g1, vSum)
	s1 := fpMul(f, c1, e1)
	s2 := fpMul(f, c1, e2)
	s3 := c2

	u := fpDivExact(f, fpMul(f, u1, u2), fpMul(f, d, d))
	// num = s1·u1·v2 + s2·u2·v1 + s3·(v1·v2 + f)
	num := fpMul(f, fpMul(f, s1, u1), v2)
	num = fpAdd(f, num, fpMul(f, fpMul(f, s2, u2), v1))
	num = fpAdd(f, num, fpMul(f, s3, fpAdd(f, fpMul(f, v1, v2), c.f)))
	vPre := fpDivExact(f, num, d)
	v := fpMod(f, vPre, u)

	// Reduction: repeat until deg u ≤ genus (= 2).
	for u.deg > 2 {
		uNext := fpMonic(f, fpDivExact(f, fpSub(f, c.f, fpMul(f, v, v)), u))
		v = fpMod(f, fpNeg(f, v), uNext)
		u = uNext
	}
	return pack(fpMonic(f, u), v)
}

// isValid reports whether d is a reduced divisor on the curve: no
// coefficient above its degree, and u | f − v². (u is monic of degree ≤ 2
// and deg v < deg u by construction of fdiv.)
func (c *Curve) isValid(d fdiv) bool {
	switch d.deg {
	case 0:
		return d == fdiv{}
	case 1:
		if !d.u1.IsZero() || !d.v1.IsZero() {
			return false
		}
	case 2:
	default:
		return false
	}
	f := c.fld
	u, v := c.lift(d)
	return fpMod(f, fpSub(f, c.f, fpMul(f, v, v)), u).deg < 0
}

// wnafWidth is the window width for variable-base scalar multiplication:
// digits ±1, ±3, …, ±15 give an average of one addition per six doublings
// with an 8-entry table.
const wnafWidth = 5

// wnafDigits returns the width-w NAF of k > 0, least significant digit
// first.
func wnafDigits(k *big.Int, w uint) []int8 {
	d := new(big.Int).Set(k)
	out := make([]int8, 0, d.BitLen()+1)
	mod := int64(1) << w
	half := mod >> 1
	window := big.NewInt(mod - 1)
	t := new(big.Int)
	for d.Sign() > 0 {
		if d.Bit(0) == 1 {
			r := t.And(d, window).Int64()
			if r >= half {
				r -= mod
			}
			out = append(out, int8(r))
			d.Sub(d, t.SetInt64(r))
		} else {
			out = append(out, 0)
		}
		d.Rsh(d, 1)
	}
	return out
}

// exp computes k·d by windowed-NAF double-and-add. k may be any integer;
// it is reduced modulo the Jacobian order first.
func (c *Curve) exp(d fdiv, k *big.Int) fdiv {
	kk := new(big.Int).Mod(k, c.order)
	if kk.Sign() == 0 || d == (fdiv{}) {
		return fdiv{}
	}
	// Odd multiples d, 3d, …, 15d.
	var tab [8]fdiv
	tab[0] = d
	d2 := c.add(d, d)
	for i := 1; i < len(tab); i++ {
		tab[i] = c.add(tab[i-1], d2)
	}
	digits := wnafDigits(kk, wnafWidth)
	var acc fdiv
	for i := len(digits) - 1; i >= 0; i-- {
		if acc != (fdiv{}) {
			acc = c.add(acc, acc)
		}
		if dg := digits[i]; dg > 0 {
			acc = c.add(acc, tab[(dg-1)/2])
		} else if dg < 0 {
			acc = c.add(acc, c.neg(tab[(-dg-1)/2]))
		}
	}
	return acc
}

// --- precomputed fixed-base exponentiation ---

// fixedBaseWindow is the digit width of the fixed-base tables: 4 bits per
// window means ⌈orderBits/4⌉ windows of 15 precomputed multiples each, and
// an exponentiation is just one table lookup + group addition per window —
// no doublings at all.
const fixedBaseWindow = 4

// FixedBase is a precomputed exponentiation table for one long-lived base
// divisor (Pedersen's g and h). It is immutable after construction and safe
// for concurrent use by the batch registration worker pool.
type FixedBase struct {
	c   *Curve
	win [][15]fdiv // win[i][d-1] = d·2^(4i)·base
}

// NewFixedBase returns a precomputed exponentiation table for the given
// base, built once (≈16 group operations per 4 exponent bits) and amortized
// across every later Exp.
func (c *Curve) NewFixedBase(base *Divisor) *FixedBase {
	nwin := (c.order.BitLen() + fixedBaseWindow - 1) / fixedBaseWindow
	t := &FixedBase{c: c, win: make([][15]fdiv, nwin)}
	cur := base.d
	for i := 0; i < nwin; i++ {
		t.win[i][0] = cur
		for j := 1; j < 15; j++ {
			t.win[i][j] = c.add(t.win[i][j-1], cur)
		}
		cur = c.add(t.win[i][14], cur) // 16·cur
	}
	return t
}

// Exp returns base^k for any integer k. A scalar already in [0, order) is
// read as is; any other is reduced first.
func (t *FixedBase) Exp(k *big.Int) *Divisor {
	if k.Sign() < 0 || k.Cmp(t.c.order) >= 0 {
		k = new(big.Int).Mod(k, t.c.order)
	}
	var acc fdiv
	for i := range t.win {
		d := int(k.Bit(4*i)) | int(k.Bit(4*i+1))<<1 | int(k.Bit(4*i+2))<<2 | int(k.Bit(4*i+3))<<3
		if d != 0 {
			acc = t.c.add(acc, t.win[i][d-1])
		}
	}
	return t.c.element(acc)
}
