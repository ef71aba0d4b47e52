package g2

import (
	"bytes"
	"math/big"
	"testing"

	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
)

// TestOCBECrossPath runs full OCBE envelope round trips with the sender and
// receiver on different genus-2 implementations (Curve over ff128 vs the
// polyring/ffbig refCurve), in both directions. Passing means the
// registration wire format is the reference's, byte for byte: commitments,
// bit commitments and envelopes produced by either are accepted and opened
// by the other.
func TestOCBECrossPath(t *testing.T) {
	if testing.Short() {
		t.Skip("reference-path jacobian arithmetic is slow; skipped in -short mode")
	}
	fast := MustPaperCurve()
	slow := paperRef
	pFast, err := pedersen.Setup(fast, []byte("ocbe-crosspath"))
	if err != nil {
		t.Fatal(err)
	}
	pSlow, err := pedersen.Setup(slow, []byte("ocbe-crosspath"))
	if err != nil {
		t.Fatal(err)
	}
	// Setup is deterministic: both paths must derive identical bases.
	if !bytes.Equal(marshalBases(pFast), marshalBases(pSlow)) {
		t.Fatal("Curve and reference Pedersen setups derived different bases")
	}
	msg := []byte("css-payload")

	combos := []struct {
		name             string
		sender, receiver *pedersen.Params
	}{
		{"fast-to-slow", pFast, pSlow},
		{"slow-to-fast", pSlow, pFast},
	}
	for _, combo := range combos {
		t.Run("eq/"+combo.name, func(t *testing.T) {
			x := big.NewInt(41)
			_, r, err := combo.receiver.CommitRandom(x)
			if err != nil {
				t.Fatal(err)
			}
			recv := ocbe.NewReceiver(combo.receiver, x, r)
			pred := ocbe.Predicate{Op: ocbe.EQ, X0: big.NewInt(41)}
			wit, req, err := recv.Prepare(pred, 0)
			if err != nil {
				t.Fatal(err)
			}
			env, err := ocbe.Compose(combo.sender, pred, 0, req, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := recv.Open(env, wit)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Error("EQ payload mismatch across paths")
			}
		})
		t.Run("ge/"+combo.name, func(t *testing.T) {
			const ell = 5
			x := big.NewInt(13)
			_, r, err := combo.receiver.CommitRandom(x)
			if err != nil {
				t.Fatal(err)
			}
			recv := ocbe.NewReceiver(combo.receiver, x, r)
			pred := ocbe.Predicate{Op: ocbe.GE, X0: big.NewInt(9)}
			wit, req, err := recv.Prepare(pred, ell)
			if err != nil {
				t.Fatal(err)
			}
			env, err := ocbe.Compose(combo.sender, pred, ell, req, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := recv.Open(env, wit)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Error("GE payload mismatch across paths")
			}
		})
	}
}

// TestOCBEComposeBatchCrossPath pins the pooled compose path: a batch of
// mixed EQ/GE envelopes composed through the lane-batched kernel must open
// on the reference group, and a batch composed on the reference group
// (which has no lane kernel) must open on the paper curve.
func TestOCBEComposeBatchCrossPath(t *testing.T) {
	if testing.Short() {
		t.Skip("reference-path jacobian arithmetic is slow; skipped in -short mode")
	}
	fast := MustPaperCurve()
	slow := paperRef
	pFast, err := pedersen.Setup(fast, []byte("ocbe-crosspath"))
	if err != nil {
		t.Fatal(err)
	}
	pSlow, err := pedersen.Setup(slow, []byte("ocbe-crosspath"))
	if err != nil {
		t.Fatal(err)
	}
	const ell = 5
	msg := []byte("css-payload")
	combos := []struct {
		name             string
		sender, receiver *pedersen.Params
	}{
		{"fast-to-slow", pFast, pSlow},
		{"slow-to-fast", pSlow, pFast},
	}
	for _, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			x := big.NewInt(13)
			_, r, err := combo.receiver.CommitRandom(x)
			if err != nil {
				t.Fatal(err)
			}
			recv := ocbe.NewReceiver(combo.receiver, x, r)
			preds := []ocbe.Predicate{
				{Op: ocbe.EQ, X0: big.NewInt(13)},
				{Op: ocbe.GE, X0: big.NewInt(9)},
				{Op: ocbe.LE, X0: big.NewInt(20)},
			}
			items := make([]ocbe.ComposeItem, len(preds))
			wits := make([]*ocbe.Witness, len(preds))
			for i, pred := range preds {
				wit, req, err := recv.Prepare(pred, ell)
				if err != nil {
					t.Fatal(err)
				}
				wits[i] = wit
				items[i] = ocbe.ComposeItem{Pred: pred, Ell: ell, Req: req, Msg: msg}
			}
			envs, errs := ocbe.ComposeBatch(combo.sender, items)
			for i := range envs {
				if errs[i] != nil {
					t.Fatalf("item %d: %v", i, errs[i])
				}
				got, err := recv.Open(envs[i], wits[i])
				if err != nil {
					t.Fatalf("item %d (%v): open: %v", i, preds[i], err)
				}
				if !bytes.Equal(got, msg) {
					t.Errorf("item %d: payload mismatch across paths", i)
				}
			}
		})
	}
}

func marshalBases(p *pedersen.Params) []byte {
	g, h := p.Bases()
	return append(p.G.Marshal(g), p.G.Marshal(h)...)
}
