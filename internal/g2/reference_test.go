package g2

// reference_test.go keeps the big-integer genus-2 arithmetic the package was
// first written in — Cantor's algorithm over polyring polynomials with
// math/big coefficients (package ffbig), plain double-and-add, and the
// big-integer codec — as refCurve, a group of its own over *refDiv values.
// It shares no code with the production path, so every differential test
// pins Curve to an independent implementation, and the two meet only in
// marshalled bytes.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"ppcd/internal/ffbig"
	"ppcd/internal/polyring"
)

// refCurve is the reference Jacobian group: y² = f(x) over ffbig.
type refCurve struct {
	field *ffbig.Field
	f     polyring.Poly // right-hand side, monic degree 5
	order *big.Int      // Jacobian group order (prime)
	gen   *refDiv
	name  string
}

// refDiv is a reduced divisor (u, v) over polyring.
type refDiv struct {
	u, v polyring.Poly
}

// String renders the divisor for failure messages.
func (d *refDiv) String() string {
	return fmt.Sprintf("div(u=%s, v=%s)", d.u, d.v)
}

// newRefCurve builds the reference group of the curve NewCurve would build
// from the same parameters, with the same hashed generator.
func newRefCurve(q *big.Int, coeffs [5]*big.Int, order *big.Int, name string) (*refCurve, error) {
	field, err := ffbig.NewField(q)
	if err != nil {
		return nil, fmt.Errorf("g2: base field: %w", err)
	}
	f := polyring.New(field, coeffs[0], coeffs[1], coeffs[2], coeffs[3], coeffs[4], big.NewInt(1))
	c := &refCurve{field: field, f: f, order: new(big.Int).Set(order), name: name}
	gen, err := c.HashToElement([]byte("ppcd/g2/generator/v1"))
	if err != nil {
		return nil, fmt.Errorf("g2: deriving generator: %w", err)
	}
	c.gen = gen
	return c, nil
}

// paperRef is the reference group of the paper curve.
var paperRef = func() *refCurve {
	c, err := newRefCurve(paperQ, [5]*big.Int{paperC0, paperC1, paperC2, paperC3, big.NewInt(0)}, paperOrder, "g2-reference")
	if err != nil {
		panic(err)
	}
	return c
}()

// Name mirrors Curve.Name.
func (c *refCurve) Name() string { return c.name }

// Order mirrors Curve.Order.
func (c *refCurve) Order() *big.Int { return new(big.Int).Set(c.order) }

// Identity returns the divisor (1, 0).
func (c *refCurve) Identity() *refDiv {
	return &refDiv{u: polyring.One(c.field), v: polyring.Zero(c.field)}
}

// Generator mirrors Curve.Generator.
func (c *refCurve) Generator() *refDiv {
	return &refDiv{u: c.gen.u, v: c.gen.v}
}

// IsValid reports whether e is a well-formed reduced divisor on this curve:
// u monic with deg u ≤ 2, deg v < deg u, and u | f − v².
func (c *refCurve) IsValid(d *refDiv) bool {
	if d.u.IsZero() || d.u.Deg() > 2 || d.u.Lead().Cmp(big.NewInt(1)) != 0 {
		return false
	}
	if d.v.Deg() >= d.u.Deg() && !(d.u.IsOne() && d.v.IsZero()) {
		return false
	}
	diff := c.f.Sub(d.v.Mul(d.v))
	rem, err := diff.Mod(d.u)
	return err == nil && rem.IsZero()
}

// Op is Cantor composition followed by reduction.
func (c *refCurve) Op(a, b *refDiv) *refDiv {
	out, err := c.cantorAdd(a, b)
	if err != nil {
		// Cantor's algorithm is total on valid divisors; an error indicates
		// corrupt inputs, which is a programmer error.
		panic(fmt.Sprintf("g2: Cantor addition failed: %v", err))
	}
	return out
}

// Inverse maps (u, v) ↦ (u, −v mod u).
func (c *refCurve) Inverse(d *refDiv) *refDiv {
	negV, err := d.v.Neg().Mod(d.u)
	if err != nil {
		panic(fmt.Sprintf("g2: inverse: %v", err))
	}
	return &refDiv{u: d.u, v: negV}
}

// Exp is plain double-and-add; negative exponents reduce modulo the group
// order.
func (c *refCurve) Exp(d *refDiv, k *big.Int) *refDiv {
	kk := new(big.Int).Mod(k, c.order)
	result := c.Identity()
	base := &refDiv{u: d.u, v: d.v}
	for i := 0; i < kk.BitLen(); i++ {
		if kk.Bit(i) == 1 {
			result = c.Op(result, base)
		}
		if i+1 < kk.BitLen() {
			base = c.Op(base, base)
		}
	}
	return result
}

// Equal mirrors Curve.Equal.
func (c *refCurve) Equal(d1, d2 *refDiv) bool {
	return d1.u.Equal(d2.u) && d1.v.Equal(d2.v)
}

// cantorAdd computes the reduced sum of two reduced divisors via Cantor's
// algorithm (composition + reduction).
func (c *refCurve) cantorAdd(d1, d2 *refDiv) (*refDiv, error) {
	// Composition.
	// d1' = gcd(u1, u2) = e1·u1 + e2·u2
	g1, e1, e2, err := polyring.XGCD(d1.u, d2.u)
	if err != nil {
		return nil, err
	}
	// d = gcd(d1', v1+v2) = c1·d1' + c2·(v1+v2)
	vSum := d1.v.Add(d2.v)
	d, c1, c2, err := polyring.XGCD(g1, vSum)
	if err != nil {
		return nil, err
	}
	s1 := c1.Mul(e1)
	s2 := c1.Mul(e2)
	s3 := c2

	u, err := d1.u.Mul(d2.u).Div(d.Mul(d))
	if err != nil {
		return nil, fmt.Errorf("composing u: %w", err)
	}
	// v = (s1·u1·v2 + s2·u2·v1 + s3·(v1·v2 + f)) / d  mod u
	num := s1.Mul(d1.u).Mul(d2.v).
		Add(s2.Mul(d2.u).Mul(d1.v)).
		Add(s3.Mul(d1.v.Mul(d2.v).Add(c.f)))
	vPre, err := num.Div(d)
	if err != nil {
		return nil, fmt.Errorf("composing v: %w", err)
	}
	v, err := vPre.Mod(u)
	if err != nil {
		return nil, err
	}

	// Reduction: repeat until deg u ≤ genus (= 2).
	for u.Deg() > 2 {
		uNext, err := c.f.Sub(v.Mul(v)).Div(u)
		if err != nil {
			return nil, fmt.Errorf("reducing u: %w", err)
		}
		uNext = uNext.Monic()
		vNext, err := v.Neg().Mod(uNext)
		if err != nil {
			return nil, err
		}
		u, v = uNext, vNext
	}
	u = u.Monic()
	return &refDiv{u: u, v: v}, nil
}

// elemLen is the byte length of one base-field element encoding.
func (c *refCurve) elemLen() int { return (c.field.Bits() + 7) / 8 }

// Marshal mirrors Curve.Marshal. Encoding: one byte deg(u), then deg(u)
// field elements for u's non-leading coefficients (u is monic), then deg(u)
// field elements for v's coefficients (zero-padded). The identity encodes as
// the single byte 0.
func (c *refCurve) Marshal(d *refDiv) []byte {
	n := c.elemLen()
	degU := d.u.Deg()
	out := make([]byte, 1+2*degU*n)
	out[0] = byte(degU)
	for i := 0; i < degU; i++ {
		d.u.Coeff(i).FillBytes(out[1+i*n : 1+(i+1)*n])
	}
	off := 1 + degU*n
	for i := 0; i < degU; i++ {
		d.v.Coeff(i).FillBytes(out[off+i*n : off+(i+1)*n])
	}
	return out
}

// Unmarshal mirrors Curve.Unmarshal and validates that the decoded pair is a
// reduced divisor on the curve.
func (c *refCurve) Unmarshal(data []byte) (*refDiv, error) {
	if len(data) < 1 {
		return nil, errors.New("g2: empty encoding")
	}
	degU := int(data[0])
	if degU > 2 {
		return nil, fmt.Errorf("g2: invalid u degree %d", degU)
	}
	n := c.elemLen()
	if len(data) != 1+2*degU*n {
		return nil, fmt.Errorf("g2: encoding length %d, want %d", len(data), 1+2*degU*n)
	}
	uCoeffs := make([]*big.Int, degU+1)
	for i := 0; i < degU; i++ {
		uCoeffs[i] = new(big.Int).SetBytes(data[1+i*n : 1+(i+1)*n])
		if !c.field.Contains(uCoeffs[i]) {
			return nil, errors.New("g2: u coefficient out of field")
		}
	}
	uCoeffs[degU] = big.NewInt(1)
	off := 1 + degU*n
	vCoeffs := make([]*big.Int, degU)
	for i := 0; i < degU; i++ {
		vCoeffs[i] = new(big.Int).SetBytes(data[off+i*n : off+(i+1)*n])
		if !c.field.Contains(vCoeffs[i]) {
			return nil, errors.New("g2: v coefficient out of field")
		}
	}
	d := &refDiv{u: polyring.New(c.field, uCoeffs...), v: polyring.New(c.field, vCoeffs...)}
	if !c.IsValid(d) {
		return nil, errors.New("g2: encoding is not a divisor on the curve")
	}
	return d, nil
}

// HashToElement mirrors Curve.HashToElement: it maps the seed to an x-coordinate,
// increments a counter until f(x) is a quadratic residue, and returns the
// degree-one divisor of the point (x, √f(x)). The discrete logarithm of the
// result with respect to any other element is unknown, as required for
// Pedersen's second base.
func (c *refCurve) HashToElement(seed []byte) (*refDiv, error) {
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
		wide := new(big.Int).SetBytes(append(digest, h2[:]...))
		x := c.field.Reduce(wide)
		fx := c.f.Eval(x)
		if fx.Sign() == 0 {
			continue // avoid 2-torsion points
		}
		y, err := c.field.Sqrt(fx)
		if err != nil {
			continue // not a QR; try next counter
		}
		// Canonical y: take the smaller of y and q−y for determinism.
		alt := c.field.Neg(y)
		if alt.Cmp(y) < 0 {
			y = alt
		}
		u := polyring.New(c.field, c.field.Neg(x), big.NewInt(1)) // X − x
		v := polyring.Constant(c.field, y)
		return &refDiv{u: u, v: v}, nil
	}
	return nil, errors.New("g2: hash-to-element failed to find a point")
}

// toRef carries an element of the paper curve to the reference group
// through its encoding.
func toRef(t testing.TB, c *Curve, e *Divisor) *refDiv {
	t.Helper()
	r, err := paperRef.Unmarshal(c.Marshal(e))
	if err != nil {
		t.Fatalf("reference rejects %v: %v", e, err)
	}
	return r
}

// fromRef carries a reference element to the paper curve.
func fromRef(t testing.TB, c *Curve, e *refDiv) *Divisor {
	t.Helper()
	d, err := c.Unmarshal(paperRef.Marshal(e))
	if err != nil {
		t.Fatalf("paper curve rejects %v: %v", e, err)
	}
	return d
}

// sameElement reports whether a paper-curve element and a reference element
// marshal to the same bytes.
func sameElement(c *Curve, e *Divisor, ref *refDiv) bool {
	return string(c.Marshal(e)) == string(paperRef.Marshal(ref))
}
