// Package g2 implements the Jacobian group of a genus-2 hyperelliptic curve
// y² = f(x) over a prime field, with divisors in Mumford representation and
// the group law given by Cantor's algorithm: the one group in which the
// system's Pedersen commitments and OCBE protocols compute. It is a
// from-scratch Go reproduction of the G2HEC C++ library the paper's
// experiments are built on (§VII): the default parameters are the paper's
// exact curve over F_q, q = 5·10²⁴ + 8503491, whose Jacobian has the 164-bit
// prime order p = 24999999999994130438600999402209463966197516075699
// (Gaudry–Schost secure random curve).
//
// There is one representation and one code path per operation: a group
// element is a 72-byte Mumford tuple over the two-limb field of package
// ff128 (fast.go), added by Lange's explicit formulas with Cantor's
// algorithm for the rare non-generic shapes (lane.go), so the base field
// must fit 127 bits.
package g2

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"ppcd/internal/ff128"
)

// Curve is a genus-2 hyperelliptic curve y² = f(x) with f monic of degree 5
// over a prime field F_q, together with the (prime) order of its Jacobian:
// the prime-order group in which Pedersen commitments and the OCBE protocols
// compute (paper §IV-A, §VII). Its elements are *Divisor values.
type Curve struct {
	fld   *ff128.Field
	f     fpoly    // right-hand side, monic degree 5
	order *big.Int // Jacobian group order (prime)
	gen   fdiv
	name  string
}

// Divisor is a reduced divisor in Mumford representation: a pair (u, v) with
// u monic, deg u ≤ 2, deg v < deg u and u | f − v². The zero value is the
// identity (1, 0).
type Divisor struct {
	d   fdiv
	fld *ff128.Field // for String; nil in the zero value, which needs none
}

// String renders the divisor for debugging: u = x² + u1·x + u0,
// v = v1·x + v0, with the terms a lower degree lacks left out.
func (e *Divisor) String() string {
	d, f := e.d, e.fld
	switch d.deg {
	case 1:
		return fmt.Sprintf("div(u=x + %v, v=%v)", f.ToBig(d.u0), f.ToBig(d.v0))
	case 2:
		return fmt.Sprintf("div(u=x^2 + %v*x + %v, v=%v*x + %v)", f.ToBig(d.u1), f.ToBig(d.u0), f.ToBig(d.v1), f.ToBig(d.v0))
	}
	return "div(u=1, v=0)"
}

// mustBig parses a base-10 integer literal; for package-level constants.
func mustBig(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("g2: bad integer literal " + s)
	}
	return n
}

// Paper curve data (§VII, from Gaudry–Schost 2004).
var (
	paperQ  = mustBig("5000000000000000008503491")
	paperC3 = mustBig("2682810822839355644900736")
	paperC2 = mustBig("226591355295993102902116")
	paperC1 = mustBig("2547674715952929717899918")
	paperC0 = mustBig("4797309959708489673059350")
	// Order of the Jacobian group (prime, 164 bits).
	paperOrder = mustBig("24999999999994130438600999402209463966197516075699")
)

// NewCurve constructs the Jacobian group of y² = f(x) over F_q, where f is
// given by its coefficients in ascending degree (degree-5 coefficient is
// implicitly 1) and order is the Jacobian group order. q must be a prime of
// at most 127 bits. The generator is derived deterministically by hashing.
func NewCurve(q *big.Int, coeffs [5]*big.Int, order *big.Int, name string) (*Curve, error) {
	fld, err := ff128.NewField(q)
	if err != nil {
		return nil, fmt.Errorf("g2: base field: %w", err)
	}
	if order == nil || !order.ProbablyPrime(32) {
		return nil, errors.New("g2: Jacobian order must be prime")
	}
	c := &Curve{fld: fld, order: new(big.Int).Set(order), name: name}
	c.f.deg = 5
	for i, a := range coeffs {
		c.f.c[i] = fld.FromBig(a)
	}
	c.f.c[5] = fld.One()
	gen, err := c.HashToElement([]byte("ppcd/g2/generator/v1"))
	if err != nil {
		return nil, fmt.Errorf("g2: deriving generator: %w", err)
	}
	c.gen = gen.d
	return c, nil
}

// PaperCurve returns the exact curve used in the paper's experiments.
func PaperCurve() (*Curve, error) {
	return NewCurve(paperQ, [5]*big.Int{paperC0, paperC1, paperC2, paperC3, big.NewInt(0)}, paperOrder, "g2-jacobian-gaudry-schost")
}

// MustPaperCurve is PaperCurve panicking on error; the parameters are
// compile-time constants so failure is a programming error.
func MustPaperCurve() *Curve {
	c, err := PaperCurve()
	if err != nil {
		panic(err)
	}
	return c
}

// Name identifies the curve, e.g. "g2-jacobian-gaudry-schost".
func (c *Curve) Name() string { return c.name }

// Order returns the prime Jacobian order p. The Pedersen message space is
// F_p for this order.
func (c *Curve) Order() *big.Int { return new(big.Int).Set(c.order) }

// Modulus returns q, the order of the base field F_q.
func (c *Curve) Modulus() *big.Int { return c.fld.P() }

// element boxes a divisor as a group element.
func (c *Curve) element(d fdiv) *Divisor { return &Divisor{d: d, fld: c.fld} }

// Identity returns the neutral divisor (1, 0).
func (c *Curve) Identity() *Divisor { return c.element(fdiv{}) }

// Generator returns the fixed base point g.
func (c *Curve) Generator() *Divisor { return c.element(c.gen) }

// IsIdentity reports whether e is the neutral divisor.
func (c *Curve) IsIdentity(e *Divisor) bool { return e.d == fdiv{} }

// IsValid reports whether e is a well-formed reduced divisor on this curve:
// u monic with deg u ≤ 2, deg v < deg u, and u | f − v².
func (c *Curve) IsValid(e *Divisor) bool { return c.isValid(e.d) }

// Op returns a·b, the group law of lane.go (Cantor composition followed by
// reduction).
func (c *Curve) Op(a, b *Divisor) *Divisor { return c.element(c.add(a.d, b.d)) }

// Inverse returns a⁻¹: (u, v) ↦ (u, −v mod u).
func (c *Curve) Inverse(a *Divisor) *Divisor { return c.element(c.neg(a.d)) }

// Exp returns a^k by windowed-NAF double-and-add; negative exponents
// reduce modulo the group order.
func (c *Curve) Exp(a *Divisor, k *big.Int) *Divisor { return c.element(c.exp(a.d, k)) }

// Equal reports whether a and b are the same group element.
func (c *Curve) Equal(a, b *Divisor) bool { return a.d == b.d }

// elemLen is the byte length of one base-field element encoding.
func (c *Curve) elemLen() int { return (c.fld.Bits() + 7) / 8 }

// Marshal returns the canonical encoding of a: one byte deg(u), then deg(u)
// field elements for u's non-leading coefficients (u is monic), then deg(u)
// field elements for v's coefficients (zero-padded), each big-endian in
// ascending degree. The identity encodes as the single byte 0.
func (c *Curve) Marshal(a *Divisor) []byte {
	d := a.d
	n := c.elemLen()
	coeffs := [4]ff128.Elem{d.u0, d.u1}
	copy(coeffs[d.deg:], []ff128.Elem{d.v0, d.v1})
	out := make([]byte, 1+2*d.deg*n)
	out[0] = byte(d.deg)
	for i, x := range coeffs[:2*d.deg] {
		c.fld.ToBig(x).FillBytes(out[1+i*n : 1+(i+1)*n])
	}
	return out
}

// Unmarshal decodes an element produced by Marshal and validates that the
// decoded pair is a reduced divisor on the curve. A coefficient is refused
// unless it is below q: the encoding of each element is unique.
func (c *Curve) Unmarshal(data []byte) (*Divisor, error) {
	if len(data) < 1 {
		return nil, errors.New("g2: empty encoding")
	}
	deg := int(data[0])
	if deg > 2 {
		return nil, fmt.Errorf("g2: invalid u degree %d", deg)
	}
	n := c.elemLen()
	if len(data) != 1+2*deg*n {
		return nil, fmt.Errorf("g2: encoding length %d, want %d", len(data), 1+2*deg*n)
	}
	q := c.fld.P()
	var coeffs [4]ff128.Elem
	for i := range coeffs[:2*deg] {
		x := new(big.Int).SetBytes(data[1+i*n : 1+(i+1)*n])
		if x.Cmp(q) >= 0 {
			return nil, errors.New("g2: coefficient out of field")
		}
		coeffs[i] = c.fld.FromBig(x)
	}
	d := fdiv{deg: deg}
	switch deg {
	case 1:
		d.u0, d.v0 = coeffs[0], coeffs[1]
	case 2:
		d.u0, d.u1, d.v0, d.v1 = coeffs[0], coeffs[1], coeffs[2], coeffs[3]
	}
	if !c.isValid(d) {
		return nil, errors.New("g2: encoding is not a divisor on the curve")
	}
	return c.element(d), nil
}

// HashToElement maps the seed to an x-coordinate, increments a counter until
// f(x) is a quadratic residue, and returns the degree-one divisor of the
// point (x, √f(x)). The discrete logarithm of the result with respect to any
// other element is unknown, as required for Pedersen's second base.
func (c *Curve) HashToElement(seed []byte) (*Divisor, error) {
	f := c.fld
	for ctr := uint32(0); ctr < 1<<16; ctr++ {
		h := sha256.New()
		h.Write([]byte("ppcd/g2/hash-to-element/v1"))
		h.Write(seed)
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		digest := h.Sum(nil)
		// Two SHA-256 blocks give > 2·83 bits, enough for negligible bias.
		h2 := sha256.Sum256(append(digest, 0x01))
		x := f.FromBig(new(big.Int).SetBytes(append(digest, h2[:]...)))
		fx := c.f.c[5]
		for i := 4; i >= 0; i-- {
			fx = f.Add(f.Mul(fx, x), c.f.c[i])
		}
		if fx.IsZero() {
			continue // avoid 2-torsion points
		}
		y, err := f.Sqrt(fx)
		if err != nil {
			continue // not a QR; try next counter
		}
		// Canonical y: take the smaller of y and q−y for determinism.
		if f.ToBig(f.Neg(y)).Cmp(f.ToBig(y)) < 0 {
			y = f.Neg(y)
		}
		return c.element(fdiv{deg: 1, u0: f.Neg(x), v0: y}), nil // (X − x, y)
	}
	return nil, errors.New("g2: hash-to-element failed to find a point")
}
