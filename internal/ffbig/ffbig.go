// Package ffbig implements arithmetic in prime fields F_p of arbitrary size
// on top of math/big. It is the base field of the test oracle for the
// commitment group: the big-integer Cantor path in package g2's tests works
// over the paper's 83-bit field through it.
// Elements are canonical residues (*big.Int in [0, p)).
package ffbig

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
)

// Field is a prime field F_p. The zero value is not usable; construct with
// NewField.
type Field struct {
	p *big.Int
}

// NewField returns the field of integers modulo p. It rejects moduli that
// are not (probable) primes or are smaller than 3.
func NewField(p *big.Int) (*Field, error) {
	if p == nil || p.Cmp(big.NewInt(3)) < 0 {
		return nil, errors.New("ffbig: modulus must be a prime >= 3")
	}
	if !p.ProbablyPrime(32) {
		return nil, fmt.Errorf("ffbig: modulus %s is not prime", p)
	}
	return &Field{p: new(big.Int).Set(p)}, nil
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

// P returns a copy of the modulus.
func (f *Field) P() *big.Int { return new(big.Int).Set(f.p) }

// Bits returns the bit length of the modulus.
func (f *Field) Bits() int { return f.p.BitLen() }

// Reduce returns x mod p as a new canonical residue.
func (f *Field) Reduce(x *big.Int) *big.Int {
	return new(big.Int).Mod(x, f.p)
}

// ReduceInPlace reduces x modulo p in place and returns x. Hot paths
// (polynomial arithmetic in Cantor's algorithm) use it to avoid allocating a
// fresh big.Int per operation.
func (f *Field) ReduceInPlace(x *big.Int) *big.Int {
	return x.Mod(x, f.p)
}

// Contains reports whether x is a canonical residue of the field.
func (f *Field) Contains(x *big.Int) bool {
	return x != nil && x.Sign() >= 0 && x.Cmp(f.p) < 0
}

// Add returns a + b mod p.
func (f *Field) Add(a, b *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Add(a, b))
}

// Sub returns a - b mod p.
func (f *Field) Sub(a, b *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Sub(a, b))
}

// Neg returns -a mod p.
func (f *Field) Neg(a *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Neg(a))
}

// Mul returns a · b mod p.
func (f *Field) Mul(a, b *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Mul(a, b))
}

// Sq returns a² mod p.
func (f *Field) Sq(a *big.Int) *big.Int { return f.Mul(a, a) }

// Exp returns a^e mod p. Negative exponents invert the base first.
func (f *Field) Exp(a, e *big.Int) (*big.Int, error) {
	if e.Sign() < 0 {
		inv, err := f.Inv(a)
		if err != nil {
			return nil, err
		}
		return new(big.Int).Exp(inv, new(big.Int).Neg(e), f.p), nil
	}
	return new(big.Int).Exp(a, e, f.p), nil
}

// ErrNoInverse is returned when inverting zero.
var ErrNoInverse = errors.New("ffbig: zero has no multiplicative inverse")

// Inv returns a⁻¹ mod p.
func (f *Field) Inv(a *big.Int) (*big.Int, error) {
	red := f.Reduce(a)
	if red.Sign() == 0 {
		return nil, ErrNoInverse
	}
	return new(big.Int).ModInverse(red, f.p), nil
}

// Div returns a / b mod p.
func (f *Field) Div(a, b *big.Int) (*big.Int, error) {
	bi, err := f.Inv(b)
	if err != nil {
		return nil, err
	}
	return f.Mul(a, bi), nil
}

// ErrNoSqrt is returned by Sqrt for quadratic non-residues.
var ErrNoSqrt = errors.New("ffbig: element is not a quadratic residue")

// IsSquare reports whether a is a quadratic residue mod p (0 counts as a
// square).
func (f *Field) IsSquare(a *big.Int) bool {
	red := f.Reduce(a)
	if red.Sign() == 0 {
		return true
	}
	// Euler's criterion: a^((p-1)/2) == 1.
	e := new(big.Int).Rsh(new(big.Int).Sub(f.p, big.NewInt(1)), 1)
	return new(big.Int).Exp(red, e, f.p).Cmp(big.NewInt(1)) == 0
}

// Sqrt returns a square root of a mod p, or ErrNoSqrt if none exists. It
// uses math/big's ModSqrt (Tonelli–Shanks internally).
func (f *Field) Sqrt(a *big.Int) (*big.Int, error) {
	red := f.Reduce(a)
	r := new(big.Int).ModSqrt(red, f.p)
	if r == nil {
		return nil, ErrNoSqrt
	}
	return r, nil
}

// Rand returns a uniformly random canonical residue.
func (f *Field) Rand() (*big.Int, error) {
	return rand.Int(rand.Reader, f.p)
}

// RandNonZero returns a uniformly random non-zero residue.
func (f *Field) RandNonZero() (*big.Int, error) {
	for {
		x, err := f.Rand()
		if err != nil {
			return nil, err
		}
		if x.Sign() != 0 {
			return x, nil
		}
	}
}

// Equal reports whether two fields have the same modulus.
func (f *Field) Equal(g *Field) bool { return f.p.Cmp(g.p) == 0 }

// String implements fmt.Stringer.
func (f *Field) String() string { return fmt.Sprintf("F_p(%d bits)", f.Bits()) }
