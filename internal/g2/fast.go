package g2

// This file is the fast engine behind the paper curve: Cantor's algorithm
// re-implemented over the fixed-width two-limb field of package ff128, with
// array-backed fixed-degree polynomials instead of polyring's big.Int
// slices. Every polynomial lives on the stack; a full Cantor addition
// performs zero heap allocations. On top of it sit windowed-NAF scalar
// multiplication for arbitrary bases and precomputed fixed-base tables for
// the long-lived bases (the Jacobian generator and Pedersen's g and h).
//
// The polyring/ffbig implementation in g2.go remains the reference: the two
// paths implement the identical algorithm and are pinned together by
// differential tests (fast_test.go), and curves whose base field exceeds
// 2¹²⁷ bits fall back to it transparently.

import (
	"math/big"

	"ppcd/internal/ff128"
	"ppcd/internal/group"
	"ppcd/internal/polyring"
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

func (p *fpoly) isOne(f *ff128.Field) bool {
	return p.deg == 0 && p.c[0].Equal(f.One())
}

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

// fdiv is a reduced divisor in Mumford representation over the fast field.
type fdiv struct {
	u, v fpoly
}

// fastCurve is the ff128 engine for one curve: the base field, the
// right-hand side f, and the Jacobian order.
type fastCurve struct {
	fld   *ff128.Field
	f     fpoly // monic, degree 5
	order *big.Int
}

// newFastCurve builds the fast engine; it returns nil when the base field
// does not fit two limbs (the curve then stays on the reference path).
func newFastCurve(q *big.Int, coeffs [5]*big.Int, order *big.Int) *fastCurve {
	if q.BitLen() > ff128.MaxBits {
		return nil
	}
	fld, err := ff128.NewField(q)
	if err != nil {
		return nil
	}
	fc := &fastCurve{fld: fld, order: order}
	fc.f.deg = 5
	for i, c := range coeffs {
		fc.f.c[i] = fld.FromBig(c)
	}
	fc.f.c[5] = fld.One()
	return fc
}

func (fc *fastCurve) identity() fdiv {
	return fdiv{u: fpOne(fc.fld), v: fpZero()}
}

func (fc *fastCurve) isIdentity(d *fdiv) bool {
	return d.u.isOne(fc.fld) && d.v.isZero()
}

// neg returns the group inverse (u, −v mod u); deg v < deg u always holds
// for reduced divisors, so the mod is a plain coefficient negation.
func (fc *fastCurve) neg(d fdiv) fdiv {
	return fdiv{u: d.u, v: fpNeg(fc.fld, d.v)}
}

// addCantor is Cantor composition + reduction, the exact algorithm of
// (*Curve).cantorAdd ported to fixed-width arithmetic. It pays ~5 field
// inversions per call (inside fpXGCD / fpDivMod / fpMonic) and serves as
// the fallback for the non-generic shapes the one-inversion path in
// lane.go does not cover — and as its in-package differential reference.
func (fc *fastCurve) addCantor(d1, d2 fdiv) fdiv {
	if fc.isIdentity(&d1) {
		return d2
	}
	if fc.isIdentity(&d2) {
		return d1
	}
	f := fc.fld

	// Composition.
	g1, e1, e2 := fpXGCD(f, d1.u, d2.u)
	vSum := fpAdd(f, d1.v, d2.v)
	d, c1, c2 := fpXGCD(f, g1, vSum)
	s1 := fpMul(f, c1, e1)
	s2 := fpMul(f, c1, e2)
	s3 := c2

	u := fpDivExact(f, fpMul(f, d1.u, d2.u), fpMul(f, d, d))
	// num = s1·u1·v2 + s2·u2·v1 + s3·(v1·v2 + f)
	num := fpMul(f, fpMul(f, s1, d1.u), d2.v)
	num = fpAdd(f, num, fpMul(f, fpMul(f, s2, d2.u), d1.v))
	num = fpAdd(f, num, fpMul(f, s3, fpAdd(f, fpMul(f, d1.v, d2.v), fc.f)))
	vPre := fpDivExact(f, num, d)
	v := fpMod(f, vPre, u)

	// Reduction: repeat until deg u ≤ genus (= 2).
	for u.deg > 2 {
		uNext := fpMonic(f, fpDivExact(f, fpSub(f, fc.f, fpMul(f, v, v)), u))
		v = fpMod(f, fpNeg(f, v), uNext)
		u = uNext
	}
	u = fpMonic(f, u)
	return fdiv{u: u, v: v}
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
func (fc *fastCurve) exp(d fdiv, k *big.Int) fdiv {
	kk := new(big.Int).Mod(k, fc.order)
	if kk.Sign() == 0 || fc.isIdentity(&d) {
		return fc.identity()
	}
	// Odd multiples d, 3d, …, 15d.
	var tab [8]fdiv
	tab[0] = d
	d2 := fc.add(d, d)
	for i := 1; i < len(tab); i++ {
		tab[i] = fc.add(tab[i-1], d2)
	}
	digits := wnafDigits(kk, wnafWidth)
	acc := fc.identity()
	for i := len(digits) - 1; i >= 0; i-- {
		if !fc.isIdentity(&acc) {
			acc = fc.add(acc, acc)
		}
		if dg := digits[i]; dg > 0 {
			acc = fc.add(acc, tab[(dg-1)/2])
		} else if dg < 0 {
			acc = fc.add(acc, fc.neg(tab[(-dg-1)/2]))
		}
	}
	return acc
}

// isValid is the fast-path divisor check behind (*Curve).IsValid: u monic of
// degree ≤ 2, deg v < deg u (or the identity), and u | f − v².
func (fc *fastCurve) isValid(d fdiv) bool {
	f := fc.fld
	if d.u.deg < 0 || d.u.deg > 2 || !d.u.c[d.u.deg].Equal(f.One()) {
		return false
	}
	if d.v.deg >= d.u.deg && !(d.u.isOne(f) && d.v.isZero()) {
		return false
	}
	diff := fpSub(f, fc.f, fpMul(f, d.v, d.v))
	rem := fpMod(f, diff, d.u)
	return rem.isZero()
}

// --- conversions between the public Divisor form and the fast form ---

func (c *Curve) toFast(d *Divisor) fdiv {
	fld := c.fast.fld
	var out fdiv
	out.u.deg = d.u.Deg()
	for i := 0; i <= out.u.deg; i++ {
		out.u.c[i] = fld.FromBig(d.u.Coeff(i))
	}
	out.v.deg = d.v.Deg()
	for i := 0; i <= out.v.deg; i++ {
		out.v.c[i] = fld.FromBig(d.v.Coeff(i))
	}
	return out
}

func (c *Curve) fromFast(d fdiv) *Divisor {
	fld := c.fast.fld
	uc := make([]*big.Int, d.u.deg+1)
	for i := range uc {
		uc[i] = fld.ToBig(d.u.c[i])
	}
	vc := make([]*big.Int, d.v.deg+1)
	for i := range vc {
		vc[i] = fld.ToBig(d.v.c[i])
	}
	return &Divisor{u: polyring.New(c.field, uc...), v: polyring.New(c.field, vc...)}
}

// --- precomputed fixed-base exponentiation (group.FixedBase) ---

// fixedBaseWindow is the digit width of the fixed-base tables: 4 bits per
// window means ⌈orderBits/4⌉ windows of 15 precomputed multiples each, and
// an exponentiation is just one table lookup + Cantor addition per window —
// no doublings at all.
const fixedBaseWindow = 4

// fixedBase is a precomputed table for one long-lived base divisor. It is
// immutable after construction and safe for concurrent use by the batch
// registration worker pool.
type fixedBase struct {
	c   *Curve
	win [][15]fdiv // win[i][d-1] = d·2^(4i)·base
}

// NewFixedBase implements group.FixedBaseGroup: it returns a precomputed
// exponentiation table for the given base, built once (≈16 group operations
// per 4 exponent bits) and amortized across every later Exp.
func (c *Curve) NewFixedBase(base group.Element) group.FixedBase {
	d := c.div(base)
	if c.fast == nil {
		return &slowFixedBase{c: c, base: &Divisor{u: d.u, v: d.v}}
	}
	nwin := (c.order.BitLen() + fixedBaseWindow - 1) / fixedBaseWindow
	t := &fixedBase{c: c, win: make([][15]fdiv, nwin)}
	cur := c.toFast(d)
	for i := 0; i < nwin; i++ {
		t.win[i][0] = cur
		for j := 1; j < 15; j++ {
			t.win[i][j] = c.fast.add(t.win[i][j-1], cur)
		}
		cur = c.fast.add(t.win[i][14], cur) // 16·cur
	}
	return t
}

// Exp implements group.FixedBase.
func (t *fixedBase) Exp(k *big.Int) group.Element {
	fc := t.c.fast
	kk := new(big.Int).Mod(k, t.c.order)
	acc := fc.identity()
	for i := range t.win {
		d := int(kk.Bit(4*i)) | int(kk.Bit(4*i+1))<<1 | int(kk.Bit(4*i+2))<<2 | int(kk.Bit(4*i+3))<<3
		if d != 0 {
			acc = fc.add(acc, t.win[i][d-1])
		}
	}
	return t.c.fromFast(acc)
}

// slowFixedBase is the fallback table for curves without a fast engine: it
// delegates to the generic Exp. (Only reachable for base fields over 2¹²⁷.)
type slowFixedBase struct {
	c    *Curve
	base *Divisor
}

// Exp implements group.FixedBase.
func (t *slowFixedBase) Exp(k *big.Int) group.Element { return t.c.Exp(t.base, k) }

var _ group.FixedBaseGroup = (*Curve)(nil)
