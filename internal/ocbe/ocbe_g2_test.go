package ocbe

import (
	"bytes"
	"math/big"
	"testing"

	"ppcd/internal/g2"
	"ppcd/internal/pedersen"
)

// TestProtocolsOverJacobian exercises the OCBE flow over the paper's actual
// genus-2 Jacobian group, tying the crypto stack together end to end exactly
// as the paper's experiments did.
func TestProtocolsOverJacobian(t *testing.T) {
	p, err := pedersen.Setup(g2.MustPaperCurve(), []byte("ocbe-g2-test"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("css=0xdeadbeef")

	t.Run("eq", func(t *testing.T) {
		x := big.NewInt(28)
		_, r, err := p.CommitRandom(x)
		if err != nil {
			t.Fatal(err)
		}
		recv := NewReceiver(p, x, r)
		pred := Predicate{EQ, big.NewInt(28)}
		wit, req, err := recv.Prepare(pred, 0)
		if err != nil {
			t.Fatal(err)
		}
		env, err := Compose(p, pred, 0, req, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recv.Open(env, wit)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Error("payload mismatch over jacobian")
		}
		// Unsatisfied predicate fails.
		pred2 := Predicate{EQ, big.NewInt(29)}
		wit2, req2, err := recv.Prepare(pred2, 0)
		if err != nil {
			t.Fatal(err)
		}
		env2, err := Compose(p, pred2, 0, req2, msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := recv.Open(env2, wit2); err == nil {
			t.Error("unsatisfied EQ opened over jacobian")
		}
	})

	t.Run("ge", func(t *testing.T) {
		const ell = 5
		x := big.NewInt(13)
		_, r, err := p.CommitRandom(x)
		if err != nil {
			t.Fatal(err)
		}
		recv := NewReceiver(p, x, r)
		pred := Predicate{GE, big.NewInt(10)}
		wit, req, err := recv.Prepare(pred, ell)
		if err != nil {
			t.Fatal(err)
		}
		env, err := Compose(p, pred, ell, req, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recv.Open(env, wit)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Error("GE payload mismatch over jacobian")
		}
	})
}
