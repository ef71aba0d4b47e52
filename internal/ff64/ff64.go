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
// theorem, a^(q−2) = a⁻¹ for a ≠ 0, by a fixed addition chain: q − 2 =
// 2⁶¹ − 3 = (2⁵⁹ − 1)·2² + 1, and x_k = a^(2^k − 1) is built as x_{j+k} =
// x_j^(2^k)·x_k. That is 60 squarings and 11 multiplies, where Exp's
// square-and-multiply over the 61 bits takes 61 and 59.
func Inv(a Elem) (Elem, error) {
	if a == 0 {
		return 0, ErrNoInverse
	}
	x2 := Mul(Sq(a), a)        // a^(2²−1)
	x3 := Mul(Sq(x2), a)       // a^(2³−1)
	x5 := Mul(sqn(x3, 2), x2)  // a^(2⁵−1)
	x10 := Mul(sqn(x5, 5), x5) // a^(2¹⁰−1)
	x20 := Mul(sqn(x10, 10), x10)
	x40 := Mul(sqn(x20, 20), x20)
	x50 := Mul(sqn(x40, 10), x10)
	x55 := Mul(sqn(x50, 5), x5)
	x58 := Mul(sqn(x55, 3), x3)
	x59 := Mul(Sq(x58), a)
	return Mul(sqn(x59, 2), a), nil
}

// sqn returns a^(2^n), n squarings of a.
func sqn(a Elem, n int) Elem {
	for range n {
		a = Sq(a)
	}
	return a
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
