// Package ff128 implements fast fixed-width arithmetic in prime fields F_p
// for moduli below 2¹²⁷. Elements are two-limb Montgomery residues held in a
// constant-size struct: no operation allocates, every field multiplication is
// four 64×64→128 hardware multiplies plus a two-round Montgomery reduction.
//
// The package exists for the registration crypto path: the paper's genus-2
// Jacobian (§VII, G2HEC) works over the 83-bit field
// q = 5·10²⁴ + 8503491, and every Pedersen commitment, Cantor group operation
// and OCBE envelope bottoms out in thousands of multiplications in that
// field. Package ffbig (math/big residues) is the reference implementation
// the differential tests pin this package to; no program code uses it.
package ff128

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// MaxBits is the largest supported modulus bit length. The bound keeps every
// intermediate of the two-limb Montgomery reduction inside 256 bits and lets
// Add work without a carry out of the high limb.
const MaxBits = 127

// Elem is a field element in Montgomery form (x·R mod p, R = 2¹²⁸), kept
// canonical (< p). The zero value is the field's zero. Elements are only
// meaningful with the Field that produced them.
type Elem struct {
	lo, hi uint64
}

// IsZero reports whether e is the additive identity.
func (e Elem) IsZero() bool { return e.lo == 0 && e.hi == 0 }

// Equal reports whether two elements are equal. Montgomery form is kept
// canonical, so limb equality is element equality.
func (e Elem) Equal(o Elem) bool { return e.lo == o.lo && e.hi == o.hi }

// Field is a prime field F_p with p < 2¹²⁷. Construct with NewField; the
// zero value is unusable. A Field is immutable after construction and safe
// for concurrent use.
type Field struct {
	p0, p1 uint64 // modulus, little-endian limbs
	n0     uint64 // -p⁻¹ mod 2⁶⁴
	r2     Elem   // R² mod p: the to-Montgomery conversion factor
	one    Elem   // R mod p: the Montgomery form of 1
	bits   int
	pBig   *big.Int
	pm2    [2]uint64 // p−2, the Fermat inversion exponent
	sqrtE  [2]uint64 // (p+1)/4 when p ≡ 3 (mod 4)
	sqrt34 bool      // p ≡ 3 (mod 4): Sqrt has a single-exponentiation path
}

// NewField returns the field of integers modulo p. The modulus must be a
// (probable) prime with 2 ≤ bitlen ≤ 127.
func NewField(p *big.Int) (*Field, error) {
	if p == nil || p.Sign() <= 0 || p.BitLen() > MaxBits {
		return nil, fmt.Errorf("ff128: modulus must have at most %d bits", MaxBits)
	}
	if p.Cmp(big.NewInt(3)) < 0 {
		return nil, errors.New("ff128: modulus must be a prime >= 3")
	}
	if !p.ProbablyPrime(32) {
		return nil, fmt.Errorf("ff128: modulus %s is not prime", p)
	}
	f := &Field{bits: p.BitLen(), pBig: new(big.Int).Set(p)}
	f.p0, f.p1 = limbs(p)

	// n0 = -p⁻¹ mod 2⁶⁴ by Newton iteration (p is odd, so invertible).
	inv := f.p0 // correct to 3 bits
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p0*inv // doubles the correct bit count each round
	}
	f.n0 = -inv

	// R² mod p via big.Int once; all later conversions use Montgomery ops.
	r2 := new(big.Int).Lsh(big.NewInt(1), 256)
	r2.Mod(r2, p)
	f.r2.lo, f.r2.hi = limbs(r2)
	rmod := new(big.Int).Lsh(big.NewInt(1), 128)
	rmod.Mod(rmod, p)
	f.one.lo, f.one.hi = limbs(rmod)

	pm2 := new(big.Int).Sub(p, big.NewInt(2))
	f.pm2[0], f.pm2[1] = limbs(pm2)
	if p.Bit(0) == 1 && p.Bit(1) == 1 { // p ≡ 3 (mod 4)
		f.sqrt34 = true
		e := new(big.Int).Add(p, big.NewInt(1))
		e.Rsh(e, 2)
		f.sqrtE[0], f.sqrtE[1] = limbs(e)
	}
	return f, nil
}

// MustField is NewField for known-good compile-time moduli; it panics on
// error.
func MustField(p *big.Int) *Field {
	f, err := NewField(p)
	if err != nil {
		panic(err)
	}
	return f
}

// limbs splits a non-negative big.Int < 2¹²⁸ into little-endian limbs.
func limbs(x *big.Int) (lo, hi uint64) {
	var buf [16]byte
	x.FillBytes(buf[:])
	hi = binary.BigEndian.Uint64(buf[0:8])
	lo = binary.BigEndian.Uint64(buf[8:16])
	return
}

// P returns a copy of the modulus.
func (f *Field) P() *big.Int { return new(big.Int).Set(f.pBig) }

// Bits returns the bit length of the modulus.
func (f *Field) Bits() int { return f.bits }

// Zero returns the additive identity.
func (f *Field) Zero() Elem { return Elem{} }

// One returns the multiplicative identity.
func (f *Field) One() Elem { return f.one }

// FromBig converts a big.Int (any sign, any size) into the field.
func (f *Field) FromBig(x *big.Int) Elem {
	r := x
	if x.Sign() < 0 || x.Cmp(f.pBig) >= 0 {
		r = new(big.Int).Mod(x, f.pBig)
	}
	var e Elem
	e.lo, e.hi = limbs(r)
	return f.Mul(e, f.r2) // x·R² / R = x·R
}

// FromUint64 converts a uint64 into the field.
func (f *Field) FromUint64(x uint64) Elem {
	return f.Mul(Elem{lo: x}, f.r2)
}

// ToBig converts an element back to its canonical residue.
func (f *Field) ToBig(e Elem) *big.Int {
	raw := f.redc(e.lo, e.hi, 0, 0) // x·R / R = x
	out := new(big.Int).SetUint64(raw.hi)
	out.Lsh(out, 64)
	return out.Or(out, new(big.Int).SetUint64(raw.lo))
}

// Add returns a + b.
//
//ppcd:hotpath
func (f *Field) Add(a, b Elem) Elem {
	lo, c := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, c) // no carry out: p < 2¹²⁷ so a+b < 2¹²⁸
	rl, br := bits.Sub64(lo, f.p0, 0)
	rh, br := bits.Sub64(hi, f.p1, br)
	if br == 0 {
		return Elem{lo: rl, hi: rh}
	}
	return Elem{lo: lo, hi: hi}
}

// Sub returns a − b.
//
//ppcd:hotpath
func (f *Field) Sub(a, b Elem) Elem {
	lo, br := bits.Sub64(a.lo, b.lo, 0)
	hi, br := bits.Sub64(a.hi, b.hi, br)
	if br != 0 {
		lo, c := bits.Add64(lo, f.p0, 0)
		hi, _ := bits.Add64(hi, f.p1, c)
		return Elem{lo: lo, hi: hi}
	}
	return Elem{lo: lo, hi: hi}
}

// Neg returns −a.
//
//ppcd:hotpath
func (f *Field) Neg(a Elem) Elem {
	if a.IsZero() {
		return a
	}
	lo, br := bits.Sub64(f.p0, a.lo, 0)
	hi, _ := bits.Sub64(f.p1, a.hi, br)
	return Elem{lo: lo, hi: hi}
}

// Double returns 2a.
func (f *Field) Double(a Elem) Elem { return f.Add(a, a) }

// Mul returns a·b (Montgomery product: a·b/R, which on Montgomery residues
// is exactly the field product in Montgomery form).
//
//ppcd:hotpath
func (f *Field) Mul(a, b Elem) Elem {
	h00, l00 := bits.Mul64(a.lo, b.lo)
	h01, l01 := bits.Mul64(a.lo, b.hi)
	h10, l10 := bits.Mul64(a.hi, b.lo)
	h11, l11 := bits.Mul64(a.hi, b.hi)

	t0 := l00
	t1, c1 := bits.Add64(h00, l01, 0)
	t1, c2 := bits.Add64(t1, l10, 0)
	t2, c3 := bits.Add64(h01, h10, 0)
	t2, c4 := bits.Add64(t2, l11, 0)
	t2, c5 := bits.Add64(t2, c1+c2, 0)
	t3 := h11 + c3 + c4 + c5 // exact: the full product fits 256 bits

	return f.redc(t0, t1, t2, t3)
}

// Sq returns a².
func (f *Field) Sq(a Elem) Elem { return f.Mul(a, a) }

// redc performs a two-round Montgomery reduction of the 256-bit value
// (t0..t3, little-endian): it returns t/R mod p with the result < p. Valid
// for any t < p·R (a fortiori for products of reduced operands).
//
//ppcd:hotpath
func (f *Field) redc(t0, t1, t2, t3 uint64) Elem {
	// Round 0: clear t0.
	m := t0 * f.n0
	h0, l0 := bits.Mul64(m, f.p0)
	h1, l1 := bits.Mul64(m, f.p1)
	_, c := bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, h0, c)
	t2, c = bits.Add64(t2, 0, c)
	t3 += c
	t1, c = bits.Add64(t1, l1, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3 += c

	// Round 1: clear t1.
	m = t1 * f.n0
	h0, l0 = bits.Mul64(m, f.p0)
	h1, l1 = bits.Mul64(m, f.p1)
	_, c = bits.Add64(t1, l0, 0)
	t2, c = bits.Add64(t2, h0, c)
	t3 += c
	t2, c = bits.Add64(t2, l1, 0)
	t3, _ = bits.Add64(t3, h1, c)

	// Result (t2, t3) < 2p: one conditional subtraction.
	rl, br := bits.Sub64(t2, f.p0, 0)
	rh, br := bits.Sub64(t3, f.p1, br)
	if br == 0 {
		return Elem{lo: rl, hi: rh}
	}
	return Elem{lo: t2, hi: t3}
}

// expLimb raises a to a two-limb exponent by left-to-right square-and-
// multiply. The exponent is public in every use (field constants), so the
// variable-time scan is fine.
func (f *Field) expLimb(a Elem, e [2]uint64) Elem {
	result := f.one
	started := false
	for limb := 1; limb >= 0; limb-- {
		w := e[limb]
		for i := 63; i >= 0; i-- {
			if started {
				result = f.Sq(result)
			}
			if w&(1<<uint(i)) != 0 {
				if started {
					result = f.Mul(result, a)
				} else {
					result = a
					started = true
				}
			}
		}
	}
	if !started {
		return f.one
	}
	return result
}

// Exp returns a^e for an arbitrary big.Int exponent (negative exponents
// invert the base first).
func (f *Field) Exp(a Elem, e *big.Int) (Elem, error) {
	if e.Sign() < 0 {
		inv, err := f.Inv(a)
		if err != nil {
			return Elem{}, err
		}
		return f.Exp(inv, new(big.Int).Neg(e))
	}
	if a.IsZero() {
		// Fermat reduction of the exponent below is only valid for a ≠ 0.
		if e.Sign() == 0 {
			return f.one, nil
		}
		return Elem{}, nil
	}
	red := e
	if e.BitLen() > 128 {
		red = new(big.Int).Mod(e, new(big.Int).Sub(f.pBig, big.NewInt(1)))
	}
	var el [2]uint64
	el[0], el[1] = limbs(red)
	return f.expLimb(a, el), nil
}

// ErrNoInverse is returned when inverting zero.
var ErrNoInverse = errors.New("ff128: zero has no multiplicative inverse")

// Inv returns a⁻¹ via Fermat's little theorem (a^(p−2)).
func (f *Field) Inv(a Elem) (Elem, error) {
	if a.IsZero() {
		return Elem{}, ErrNoInverse
	}
	return f.expLimb(a, f.pm2), nil
}

// InvBatch inverts every element of xs in place using Montgomery's trick:
// one Fermat inversion plus 3(n−1) multiplications, instead of n full
// inversions (each ~127 squarings). If any element is zero the batch is
// rejected with ErrNoInverse and xs is left unmodified — callers relying on
// the batch must not observe a half-inverted slice.
func (f *Field) InvBatch(xs []Elem) error {
	for i := range xs {
		if xs[i].IsZero() {
			return ErrNoInverse
		}
	}
	n := len(xs)
	if n == 0 {
		return nil
	}
	// Prefix products pre[i] = x_0·…·x_i; one inversion of pre[n−1]; then
	// walk back peeling one factor per step.
	var stack [64]Elem
	pre := stack[:0]
	if n <= len(stack) {
		pre = stack[:n]
	} else {
		pre = make([]Elem, n)
	}
	pre[0] = xs[0]
	for i := 1; i < n; i++ {
		pre[i] = f.Mul(pre[i-1], xs[i])
	}
	inv := f.expLimb(pre[n-1], f.pm2)
	for i := n - 1; i >= 1; i-- {
		pi := f.Mul(inv, pre[i-1])
		inv = f.Mul(inv, xs[i])
		xs[i] = pi
	}
	xs[0] = inv
	return nil
}

// ErrNoSqrt is returned by Sqrt for quadratic non-residues.
var ErrNoSqrt = errors.New("ff128: element is not a quadratic residue")

// Sqrt returns a square root of a, or ErrNoSqrt if none exists. For
// p ≡ 3 (mod 4) — the paper's curve field — it is the single exponentiation
// a^((p+1)/4); other moduli fall back to math/big's Tonelli–Shanks, since
// they only occur in tests and setup code.
func (f *Field) Sqrt(a Elem) (Elem, error) {
	if a.IsZero() {
		return a, nil
	}
	if f.sqrt34 {
		r := f.expLimb(a, f.sqrtE)
		if !f.Sq(r).Equal(a) {
			return Elem{}, ErrNoSqrt
		}
		return r, nil
	}
	r := new(big.Int).ModSqrt(f.ToBig(a), f.pBig)
	if r == nil {
		return Elem{}, ErrNoSqrt
	}
	return f.FromBig(r), nil
}

// Rand returns a uniformly random field element.
func (f *Field) Rand() (Elem, error) {
	x, err := rand.Int(rand.Reader, f.pBig)
	if err != nil {
		return Elem{}, fmt.Errorf("ff128: sampling: %w", err)
	}
	return f.FromBig(x), nil
}

// String implements fmt.Stringer.
func (f *Field) String() string { return fmt.Sprintf("F_p(%d bits, 2-limb)", f.bits) }
