// Package ff64 implements fast arithmetic in the prime field F_q with
// q = 2^61 - 1 (a Mersenne prime). This is the "GKM field" of the paper:
// conditional subscription secrets, matrix entries, access control vectors
// and symmetric keys all live in F_q. The paper's implementation used an
// 80-bit NTL word field; 2^61-1 is the closest word-sized prime that admits
// branch-free reduction, and every algorithm layered on top of this package
// is independent of the field size (see DESIGN.md, substitution #2).
package ff64

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Modulus is the field characteristic q = 2^61 - 1.
const Modulus uint64 = (1 << 61) - 1

// Elem is an element of F_q, always kept in canonical reduced form
// [0, Modulus).
type Elem uint64

// Zero and One are the additive and multiplicative identities.
const (
	Zero Elem = 0
	One  Elem = 1
)

// New reduces an arbitrary uint64 into the field.
func New(v uint64) Elem {
	return Elem(reduce64(v))
}

// reduce64 reduces v modulo 2^61-1 using the Mersenne identity
// 2^61 ≡ 1 (mod q).
func reduce64(v uint64) uint64 {
	v = (v & Modulus) + (v >> 61)
	if v >= Modulus {
		v -= Modulus
	}
	return v
}

// reduce128 reduces a 128-bit product (hi,lo) modulo 2^61-1.
func reduce128(hi, lo uint64) uint64 {
	// hi*2^64 + lo = hi*8*2^61 + lo ≡ hi*8 + lo (mod q), with care: hi < 2^61
	// for products of reduced operands (both < 2^61), so hi*8 < 2^64.
	lo61 := lo & Modulus
	rest := (hi << 3) | (lo >> 61) // (hi*2^64+lo) >> 61
	s := lo61 + rest
	s = (s & Modulus) + (s >> 61)
	if s >= Modulus {
		s -= Modulus
	}
	return s
}

// Add returns a + b in F_q.
func Add(a, b Elem) Elem {
	s := uint64(a) + uint64(b)
	if s >= Modulus {
		s -= Modulus
	}
	return Elem(s)
}

// Sub returns a - b in F_q.
func Sub(a, b Elem) Elem {
	if a >= b {
		return a - b
	}
	return Elem(uint64(a) + Modulus - uint64(b))
}

// Neg returns -a in F_q.
func Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Elem(Modulus - uint64(a))
}

// Mul returns a * b in F_q.
func Mul(a, b Elem) Elem {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return Elem(reduce128(hi, lo))
}

// Sq returns a² in F_q.
func Sq(a Elem) Elem { return Mul(a, a) }

// MulAdd returns acc + a·b with a single 128-bit reduction instead of the
// two a separate Mul-then-Add performs. It is the inner-product primitive of
// package linalg (matrix elimination and KEV dot products). The fusion is
// sound: for reduced operands the high product limb is below 2⁵⁸, so adding
// acc < 2⁶¹ cannot push the 128-bit sum past reduce128's input range.
func MulAdd(acc, a, b Elem) Elem {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	var c uint64
	lo, c = bits.Add64(lo, uint64(acc), 0)
	hi += c
	return Elem(reduce128(hi, lo))
}

// MaxVecMulAcc bounds the number of VecMulAcc4 accumulations a (hi,lo) pair
// can absorb before VecReduce must run. Each product of reduced operands has
// a high limb below 2⁵⁸, so 63 accumulations (with their carries) stay below
// 2⁶⁴ in the high limb; callers batching more must reduce in between.
const MaxVecMulAcc = 63

// VecMulAcc4 accumulates four rank-1 contributions a_i·b_i[k] into the
// 128-bit accumulator pair (hi[k], lo[k]) for every k, WITHOUT reducing. It
// is the delayed-reduction inner loop of blocked elimination (package
// linalg): a panel of up to MaxVecMulAcc rank-1 updates costs one 64×64
// multiply and two adds per element and source, with a single VecReduce at
// the end instead of one reduce128 per multiply, and each accumulator
// element is loaded and stored once per four sources. A caller with fewer
// than four sources passes zero multipliers, which add nothing. Counts as
// four accumulations against the MaxVecMulAcc budget. All b_i and hi/lo must
// be at least as long as b0.
//
// On amd64 the body is assembly (ff64_amd64.s) that keeps an element's
// accumulator pair in two registers across the four multiplies; the Go
// compiler spills every product and carry of vecMulAcc4Generic to the
// stack. Both bodies compute the same 128-bit sums.
func VecMulAcc4(hi, lo []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem) {
	n := len(b0)
	if n == 0 {
		return
	}
	vecMulAcc4(hi[:n], lo[:n], a0, a1, a2, a3, b0, b1[:n], b2[:n], b3[:n])
}

// vecMulAcc4Generic is the portable body of VecMulAcc4, compiled on every
// build so tests can hold the assembly to it. Its slices obey VecMulAcc4's
// length rule; reslicing them to len(b0) lets the compiler drop the bounds
// checks in the loop.
func vecMulAcc4Generic(hi, lo []uint64, a0, a1, a2, a3 Elem, b0, b1, b2, b3 []Elem) {
	n := len(b0)
	v0, v1, v2, v3 := uint64(a0), uint64(a1), uint64(a2), uint64(a3)
	b1, b2, b3 = b1[:n], b2[:n], b3[:n]
	hi, lo = hi[:n], lo[:n]
	for k, bv := range b0 {
		lk, hk := lo[k], hi[k]
		var c uint64
		h, l := bits.Mul64(v0, uint64(bv))
		lk, c = bits.Add64(lk, l, 0)
		hk += h + c
		h, l = bits.Mul64(v1, uint64(b1[k]))
		lk, c = bits.Add64(lk, l, 0)
		hk += h + c
		h, l = bits.Mul64(v2, uint64(b2[k]))
		lk, c = bits.Add64(lk, l, 0)
		hk += h + c
		h, l = bits.Mul64(v3, uint64(b3[k]))
		lk, c = bits.Add64(lk, l, 0)
		hk += h + c
		lo[k], hi[k] = lk, hk
	}
}

// VecLoad seeds the accumulator pair with the current row contents
// (hi[k] = 0, lo[k] = out[k]) ahead of a VecMulAcc4 batch.
func VecLoad(hi, lo []uint64, v []Elem) {
	for k, e := range v {
		lo[k] = uint64(e)
		hi[k] = 0
	}
}

// VecReduce folds each accumulator pair back into canonical field elements:
// out[k] = (hi[k]·2⁶⁴ + lo[k]) mod q. Unlike reduce128 it accepts the full
// 128-bit range, so it is safe after up to MaxVecMulAcc accumulations.
func VecReduce(out []Elem, hi, lo []uint64) {
	for k := range out {
		out[k] = Reduce128Wide(hi[k], lo[k])
	}
}

// Reduce128Wide reduces an arbitrary 128-bit value hi·2⁶⁴ + lo into F_q. It
// is reduce128 without the hi < 2⁶¹ precondition (the high limb is split
// before shifting), for delayed-reduction accumulators.
func Reduce128Wide(hi, lo uint64) Elem {
	// hi·2⁶⁴ ≡ 8·hi (mod q); split 8·hi exactly as h2·2⁶⁴ + l2.
	h2, l2 := hi>>61, hi<<3
	s, c := bits.Add64(l2, lo, 0)
	// Now value ≡ (h2+c)·2⁶⁴ + s ≡ 8·(h2+c) + s, with 8·(h2+c) ≤ 64.
	v := (s & Modulus) + (s >> 61) + 8*(h2+c)
	v = (v & Modulus) + (v >> 61)
	if v >= Modulus {
		v -= Modulus
	}
	return Elem(v)
}

// Exp returns a^e in F_q by square-and-multiply.
func Exp(a Elem, e uint64) Elem {
	result := One
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Sq(base)
		e >>= 1
	}
	return result
}

// ErrNoInverse is returned by Inv when the argument is zero.
var ErrNoInverse = errors.New("ff64: zero has no multiplicative inverse")

// Inv returns a⁻¹ in F_q, or an error if a is zero. It uses Fermat's little
// theorem: a^(q-2) = a⁻¹ for a ≠ 0.
func Inv(a Elem) (Elem, error) {
	if a == 0 {
		return 0, ErrNoInverse
	}
	return Exp(a, Modulus-2), nil
}

// MustInv is Inv for callers that have already excluded zero; it panics on
// zero input.
func MustInv(a Elem) Elem {
	inv, err := Inv(a)
	if err != nil {
		panic(err)
	}
	return inv
}

// Div returns a / b, or an error if b is zero.
func Div(a, b Elem) (Elem, error) {
	bi, err := Inv(b)
	if err != nil {
		return 0, err
	}
	return Mul(a, bi), nil
}

// Rand returns a uniformly random field element using crypto/rand.
func Rand() (Elem, error) {
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			return 0, fmt.Errorf("ff64: reading randomness: %w", err)
		}
		// Rejection-sample the top 61 bits for uniformity.
		v := binary.LittleEndian.Uint64(buf[:]) >> 3
		if v < Modulus {
			return Elem(v), nil
		}
	}
}

// RandNonZero returns a uniformly random non-zero field element.
func RandNonZero() (Elem, error) {
	for {
		e, err := Rand()
		if err != nil {
			return 0, err
		}
		if e != 0 {
			return e, nil
		}
	}
}

// Bytes returns the canonical 8-byte big-endian encoding of a.
func (a Elem) Bytes() []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(a))
	return buf[:]
}

// FromBytes decodes an 8-byte big-endian encoding. Values are reduced mod q.
func FromBytes(b []byte) (Elem, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("ff64: encoding must be 8 bytes, got %d", len(b))
	}
	return New(binary.BigEndian.Uint64(b)), nil
}

// String implements fmt.Stringer.
func (a Elem) String() string { return fmt.Sprintf("%d", uint64(a)) }
