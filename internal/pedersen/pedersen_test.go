package pedersen

import (
	"math/big"
	"sync"
	"testing"

	"ppcd/internal/g2"
)

// paperCurve is shared across tests (construction does a hash-to-point
// search, so build it once).
var paperCurve = g2.MustPaperCurve()

var (
	once    sync.Once
	pA, pB  *Params // two seeds over the paper curve: two second bases
	initErr error
)

func setup(t *testing.T) (*Params, *Params) {
	t.Helper()
	once.Do(func() {
		pA, initErr = Setup(paperCurve, []byte("test"))
		if initErr != nil {
			return
		}
		pB, initErr = Setup(paperCurve, []byte("other"))
	})
	if initErr != nil {
		t.Fatal(initErr)
	}
	return pA, pB
}

func TestSetupRejectsNil(t *testing.T) {
	if _, err := Setup(nil, []byte("x")); err == nil {
		t.Error("nil group accepted")
	}
}

// TestCommitVerifyAllGroups opens commitments under every parameter set the
// tests build: the paper curve under two seeds, whose second bases differ.
func TestCommitVerifyAllGroups(t *testing.T) {
	a, b := setup(t)
	_, ha := a.Bases()
	_, hb := b.Bases()
	if a.G.Equal(ha, hb) {
		t.Fatal("two seeds derived the same second base")
	}
	for _, p := range []*Params{a, b} {
		x := big.NewInt(28)
		cm, r, err := p.CommitRandom(x)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Verify(cm, x, r) {
			t.Errorf("%s: valid opening rejected", p.G.Name())
		}
		if p.Verify(cm, big.NewInt(29), r) {
			t.Errorf("%s: wrong value accepted", p.G.Name())
		}
		wrongR := new(big.Int).Add(r, big.NewInt(1))
		if p.Verify(cm, x, wrongR) {
			t.Errorf("%s: wrong blinding accepted", p.G.Name())
		}
	}
}

func TestCommitDeterministicGivenRandomness(t *testing.T) {
	p, _ := setup(t)
	x, r := big.NewInt(5), big.NewInt(7)
	c1 := p.Commit(x, r)
	c2 := p.Commit(x, r)
	if !p.G.Equal(c1, c2) {
		t.Error("Commit not deterministic")
	}
}

func TestHidingDifferentBlindings(t *testing.T) {
	p, _ := setup(t)
	x := big.NewInt(5)
	c1 := p.Commit(x, big.NewInt(1))
	c2 := p.Commit(x, big.NewInt(2))
	if p.G.Equal(c1, c2) {
		t.Error("same value different blinding produced equal commitments")
	}
}

func TestHomomorphism(t *testing.T) {
	// Commit(x1,r1)·Commit(x2,r2) = Commit(x1+x2, r1+r2).
	p, _ := setup(t)
	x1, r1 := big.NewInt(3), big.NewInt(11)
	x2, r2 := big.NewInt(4), big.NewInt(13)
	lhs := p.G.Op(p.Commit(x1, r1), p.Commit(x2, r2))
	rhs := p.Commit(new(big.Int).Add(x1, x2), new(big.Int).Add(r1, r2))
	if !p.G.Equal(lhs, rhs) {
		t.Error("commitments not homomorphic")
	}
}

func TestShift(t *testing.T) {
	// Shift(Commit(x,r), x0) = Commit(x-x0, r): when x = x0 the result is
	// h^r — exactly what EQ-OCBE relies on.
	p, _ := setup(t)
	x := big.NewInt(42)
	c, r, err := p.CommitRandom(x)
	if err != nil {
		t.Fatal(err)
	}
	shifted := p.Shift(c, x)
	_, h := p.Bases()
	if !p.G.Equal(shifted, p.G.Exp(h, r)) {
		t.Error("Shift(c, x) != h^r")
	}
	shifted2 := p.Shift(c, big.NewInt(40))
	if !p.G.Equal(shifted2, p.Commit(big.NewInt(2), r)) {
		t.Error("Shift(c, 40) != Commit(2, r)")
	}
}

func TestBasesDistinct(t *testing.T) {
	a, b := setup(t)
	for _, p := range []*Params{a, b} {
		g, h := p.Bases()
		if p.G.Equal(g, h) {
			t.Errorf("%s: g == h", p.G.Name())
		}
	}
}

func TestOrderMatchesGroup(t *testing.T) {
	pj, _ := setup(t)
	if pj.Order().Cmp(pj.G.Order()) != 0 {
		t.Error("Order mismatch")
	}
}

func TestJacobianCommitRoundTrip(t *testing.T) {
	// End-to-end over the paper's actual curve with a large value.
	p, _ := setup(t)
	x, ok := new(big.Int).SetString("123456789012345678901234567890", 10)
	if !ok {
		t.Fatal("bad literal")
	}
	c, r, err := p.CommitRandom(x)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Verify(c, x, r) {
		t.Error("jacobian commitment failed to verify")
	}
}
