package g2

import (
	"math/big"
	"testing"
)

// testCurve returns the paper curve, shared across tests (construction does
// a hash-to-point search, so build it once).
var testCurve = MustPaperCurve()

func TestPaperCurveParameters(t *testing.T) {
	c := testCurve
	if c.Modulus().BitLen() != 83 {
		t.Errorf("base field bits = %d, want 83", c.Modulus().BitLen())
	}
	// The paper calls this a "164-bit" prime; its exact bit length is 165
	// (log2(2.5·10^49) ≈ 164.09).
	if c.Order().BitLen() != 165 {
		t.Errorf("order bits = %d, want 165", c.Order().BitLen())
	}
	if !c.Order().ProbablyPrime(32) {
		t.Error("order not prime")
	}
}

func TestGeneratorValid(t *testing.T) {
	g := testCurve.Generator()
	if !testCurve.IsValid(g) {
		t.Fatal("generator is not a valid divisor")
	}
	if testCurve.IsIdentity(g) {
		t.Fatal("generator is the identity")
	}
}

func TestGroupOrderAnnihilates(t *testing.T) {
	// The strongest validation of the transcribed curve data: g^p must be
	// the identity for the paper's claimed Jacobian order p.
	g := testCurve.Generator()
	gp := testCurve.Exp(g, testCurve.Order())
	if !testCurve.IsIdentity(gp) {
		t.Fatal("g^order != identity: curve data or Cantor arithmetic wrong")
	}
}

func TestIdentityLaws(t *testing.T) {
	c := testCurve
	g := c.Generator()
	id := c.Identity()
	if !c.Equal(c.Op(g, id), g) {
		t.Error("g·1 != g")
	}
	if !c.Equal(c.Op(id, g), g) {
		t.Error("1·g != g")
	}
	if !c.Equal(c.Op(id, id), id) {
		t.Error("1·1 != 1")
	}
}

func TestInverse(t *testing.T) {
	c := testCurve
	g := c.Generator()
	if !c.IsIdentity(c.Op(g, c.Inverse(g))) {
		t.Error("g·g⁻¹ != 1")
	}
	g2 := c.Op(g, g)
	if !c.IsIdentity(c.Op(g2, c.Inverse(g2))) {
		t.Error("(g²)·(g²)⁻¹ != 1")
	}
}

func TestAssociativityAndCommutativity(t *testing.T) {
	c := testCurve
	a, err := c.HashToElement([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.HashToElement([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.HashToElement([]byte("d"))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(c.Op(a, b), c.Op(b, a)) {
		t.Error("not commutative")
	}
	lhs := c.Op(c.Op(a, b), d)
	rhs := c.Op(a, c.Op(b, d))
	if !c.Equal(lhs, rhs) {
		t.Error("not associative")
	}
}

func TestExpMatchesRepeatedOp(t *testing.T) {
	c := testCurve
	g := c.Generator()
	acc := c.Identity()
	for k := 0; k <= 10; k++ {
		want := c.Exp(g, big.NewInt(int64(k)))
		if !c.Equal(acc, want) {
			t.Fatalf("g^%d mismatch", k)
		}
		acc = c.Op(acc, g)
	}
}

func TestExpHomomorphism(t *testing.T) {
	c := testCurve
	g := c.Generator()
	a, b := big.NewInt(123456789), big.NewInt(987654321)
	lhs := c.Op(c.Exp(g, a), c.Exp(g, b))
	rhs := c.Exp(g, new(big.Int).Add(a, b))
	if !c.Equal(lhs, rhs) {
		t.Error("g^a · g^b != g^(a+b)")
	}
}

func TestExpNegative(t *testing.T) {
	c := testCurve
	g := c.Generator()
	lhs := c.Exp(g, big.NewInt(-5))
	rhs := c.Inverse(c.Exp(g, big.NewInt(5)))
	if !c.Equal(lhs, rhs) {
		t.Error("g^-5 != (g^5)^-1")
	}
}

func TestOpClosedAndValid(t *testing.T) {
	c := testCurve
	g := c.Generator()
	x := g
	for i := 0; i < 12; i++ {
		x = c.Op(x, g)
		if !c.IsValid(x) {
			t.Fatalf("g^%d is not a valid reduced divisor", i+2)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := testCurve
	elems := []*Divisor{
		c.Identity(),
		c.Generator(),
		c.Op(c.Generator(), c.Generator()),
		c.Exp(c.Generator(), big.NewInt(123456789012345)),
	}
	for i, e := range elems {
		enc := c.Marshal(e)
		dec, err := c.Unmarshal(enc)
		if err != nil {
			t.Fatalf("elem %d: %v", i, err)
		}
		if !c.Equal(e, dec) {
			t.Fatalf("elem %d: round trip mismatch", i)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	c := testCurve
	if _, err := c.Unmarshal(nil); err == nil {
		t.Error("empty encoding accepted")
	}
	if _, err := c.Unmarshal([]byte{7}); err == nil {
		t.Error("bad degree accepted")
	}
	if _, err := c.Unmarshal([]byte{2, 1, 2, 3}); err == nil {
		t.Error("truncated encoding accepted")
	}
	// Valid length but a point not on the curve.
	enc := c.Marshal(c.Generator())
	enc[len(enc)-1] ^= 0x01
	if _, err := c.Unmarshal(enc); err == nil {
		t.Error("off-curve encoding accepted")
	}
}

func TestHashToElementDeterministicAndDistinct(t *testing.T) {
	c := testCurve
	a1, err := c.HashToElement([]byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.HashToElement([]byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(a1, a2) {
		t.Error("hash-to-element not deterministic")
	}
	b, err := c.HashToElement([]byte("other"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Equal(a1, b) {
		t.Error("distinct seeds collide")
	}
	if !c.IsValid(a1) || !c.IsValid(b) {
		t.Error("hashed elements invalid")
	}
}

func TestNewCurveValidation(t *testing.T) {
	if _, err := NewCurve(big.NewInt(16), [5]*big.Int{big.NewInt(1), big.NewInt(0), big.NewInt(0), big.NewInt(0), big.NewInt(0)}, big.NewInt(7), "bad"); err == nil {
		t.Error("composite base field accepted")
	}
	if _, err := NewCurve(paperQ, [5]*big.Int{paperC0, paperC1, paperC2, paperC3, big.NewInt(0)}, big.NewInt(10), "bad"); err == nil {
		t.Error("composite order accepted")
	}
	// 2⁵²¹ − 1 is prime but does not fit the two-limb field.
	big521 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 521), big.NewInt(1))
	if _, err := NewCurve(big521, [5]*big.Int{big.NewInt(1), big.NewInt(0), big.NewInt(0), big.NewInt(0), big.NewInt(0)}, paperOrder, "wide"); err == nil {
		t.Error("a base field over 127 bits accepted")
	}
}

func TestInverseOfIdentity(t *testing.T) {
	c := testCurve
	if !c.IsIdentity(c.Inverse(c.Identity())) {
		t.Error("1⁻¹ != 1")
	}
}

func BenchmarkOp(b *testing.B) {
	c := testCurve
	g := c.Generator()
	h := c.Op(g, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = c.Op(h, g)
	}
	_ = h
}

func BenchmarkExp(b *testing.B) {
	c := testCurve
	g := c.Generator()
	k, _ := new(big.Int).SetString("123456789012345678901234567890123456789", 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Exp(g, k)
	}
}
