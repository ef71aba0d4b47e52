package g2

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"

	"ppcd/internal/group"
	"ppcd/internal/pedersen"
)

// goldenPaperCurve is the SHA-256 of every encoding TestPaperCurveGolden
// produces. Envelopes, tokens and commitments on the wire are these bytes;
// a change here is a wire-format change, not a refactor.
const goldenPaperCurve = "eac2d9b91971309e2950e320f97b469325e77d10a1f85f0aa08518ce68500b06"

// goldenScalar is a fixed 256-bit scalar, so the chains below exercise the
// reduction modulo the group order as well as the in-range path.
func goldenScalar(i int) *big.Int {
	h := sha256.Sum256([]byte(fmt.Sprintf("ppcd/g2/golden/scalar/%d", i)))
	return new(big.Int).SetBytes(h[:])
}

// TestPaperCurveGolden pins the marshalled bytes of the paper curve's
// generator and identity, of hash-to-element points, of Exp / Op / Inverse /
// LaneExp chains, and of Pedersen bases and commitments made through the
// fixed-base tables.
func TestPaperCurveGolden(t *testing.T) {
	c := MustPaperCurve()
	h := sha256.New()
	put := func(e group.Element) { h.Write(c.Marshal(e)) }

	put(c.Identity())
	put(c.Generator())
	hashed := make([]group.Element, 24)
	for i := range hashed {
		e, err := c.HashToElement([]byte(fmt.Sprintf("golden-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if c.Marshal(e)[0] != 1 {
			t.Fatalf("HashToElement seed %d: degree %d, want 1", i, c.Marshal(e)[0])
		}
		hashed[i] = e
		put(e)
	}
	x := c.Generator()
	for i := 0; i < 8; i++ {
		x = c.Exp(x, goldenScalar(i))
		put(x)
		x = c.Op(x, hashed[i])
		put(x)
		put(c.Inverse(x))
		put(c.Op(x, x))
	}
	put(c.Exp(x, big.NewInt(-7)))
	lanes := c.LaneExp(hashed[:6], []*big.Int{goldenScalar(100)})
	lanes = append(lanes, c.LaneExp(hashed[6:12], []*big.Int{
		goldenScalar(101), goldenScalar(102), big.NewInt(0), big.NewInt(-1), goldenScalar(103), c.Order(),
	})...)
	for _, e := range lanes {
		put(e)
	}

	p, err := pedersen.Setup(c, []byte("golden"))
	if err != nil {
		t.Fatal(err)
	}
	g, hb := p.Bases()
	put(g)
	put(hb)
	for i := 0; i < 6; i++ {
		put(p.Commit(big.NewInt(int64(i*i+3)), goldenScalar(200+i)))
	}
	put(p.Commit(big.NewInt(-5), new(big.Int).Neg(goldenScalar(300))))
	put(p.Commit(c.Order(), big.NewInt(0)))

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPaperCurve {
		t.Fatalf("paper-curve encodings hash to %s, want %s", got, goldenPaperCurve)
	}
}
