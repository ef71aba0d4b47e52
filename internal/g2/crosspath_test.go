package g2_test

// crosspath_test.go holds the OCBE wire format to the big-integer reference
// group: a sender and a receiver written here over g2.PaperRef, sharing no
// group code with package ocbe, must interoperate byte for byte with ocbe's
// sender and receiver on the paper curve. It is an external test because
// ocbe and pedersen import g2.

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"math/big"
	"testing"

	"ppcd/internal/g2"
	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
	"ppcd/internal/sym"
)

// refOCBE is the OCBE arithmetic of the paper (§IV-C) over the reference
// group, with the Pedersen bases carried over through their encodings.
type refOCBE struct {
	t    testing.TB
	g, h *g2.RefDiv
}

func newRefOCBE(t testing.TB, p *pedersen.Params) *refOCBE {
	g, h := p.Bases()
	return &refOCBE{t: t, g: refElem(t, p.G.Marshal(g)), h: refElem(t, p.G.Marshal(h))}
}

func refElem(t testing.TB, enc []byte) *g2.RefDiv {
	t.Helper()
	d, err := g2.PaperRef.Unmarshal(enc)
	if err != nil {
		t.Fatalf("reference rejects %x: %v", enc, err)
	}
	return d
}

func (o *refOCBE) commit(x, r *big.Int) *g2.RefDiv {
	ref := g2.PaperRef
	return ref.Op(ref.Exp(o.g, x), ref.Exp(o.h, r))
}

func (o *refOCBE) random() *big.Int {
	k, err := rand.Int(rand.Reader, g2.PaperRef.Order())
	if err != nil {
		o.t.Fatal(err)
	}
	return k
}

// sigmaPad is H(σ), the pad mask of one bit position.
func sigmaPad(sigma *g2.RefDiv) []byte {
	h := sha256.New()
	h.Write([]byte("ocbe/sigma-pad"))
	h.Write(g2.PaperRef.Marshal(sigma))
	return h.Sum(nil)
}

func xor(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// refWitness is a reference receiver's opening of one request: the blinding
// r for an equality, the digits and blindings of the bit commitments for
// an inequality.
type refWitness struct {
	r      *big.Int
	ds, rs []*big.Int
}

// prepare is the receiver's registration message for a satisfied EQ, GE or
// LE predicate on the committed value x.
func (o *refOCBE) prepare(x, r *big.Int, pred ocbe.Predicate, ell int) (*ocbe.Request, *refWitness) {
	req := &ocbe.Request{Commitment: g2.PaperRef.Marshal(o.commit(x, r))}
	w := &refWitness{r: r}
	if pred.Op == ocbe.EQ {
		req.Bits = []*ocbe.BitCommitments{{}}
		return req, w
	}
	// GE: d = x − x0 under blinding r; LE: d = x0 − x under −r.
	order := g2.PaperRef.Order()
	d, target := new(big.Int).Sub(x, pred.X0), new(big.Int).Set(r)
	if pred.Op == ocbe.LE {
		d.Neg(d)
		target.Neg(target)
	}
	// Blindings r_1..r_{ℓ−1} random, r_0 = target − Σ 2^i r_i.
	w.rs = make([]*big.Int, ell)
	sum := new(big.Int)
	for i := 1; i < ell; i++ {
		w.rs[i] = o.random()
		sum.Add(sum, new(big.Int).Lsh(w.rs[i], uint(i)))
	}
	w.rs[0] = new(big.Int).Mod(new(big.Int).Sub(target, sum), order)
	bc := &ocbe.BitCommitments{}
	for i := 0; i < ell; i++ {
		w.ds = append(w.ds, big.NewInt(int64(d.Bit(i))))
		bc.Cs = append(bc.Cs, g2.PaperRef.Marshal(o.commit(w.ds[i], w.rs[i])))
	}
	req.Bits = []*ocbe.BitCommitments{bc}
	return req, w
}

// open is the receiver side of EQ-OCBE (σ = η^r) and of GE/LE-OCBE (pad i
// is H(η^{r_i}) ⊕ C_i^{d_i}).
func (o *refOCBE) open(env *ocbe.Envelope, w *refWitness) []byte {
	ref := g2.PaperRef
	eta := refElem(o.t, env.Eta)
	var key [sym.KeySize]byte
	if w.ds == nil {
		key = sym.DeriveKey([]byte("ocbe/eq"), ref.Marshal(ref.Exp(eta, w.r)))
	} else {
		var pads []byte
		for i, bits := range env.Bits {
			c := bits.C0
			if w.ds[i].Sign() != 0 {
				c = bits.C1
			}
			pads = append(pads, xor(sigmaPad(ref.Exp(eta, w.rs[i])), c)...)
		}
		key = sym.DeriveKey([]byte("ocbe/bitwise"), pads)
	}
	msg, err := sym.Decrypt(key, env.C)
	if err != nil {
		o.t.Fatalf("reference receiver cannot open: %v", err)
	}
	return msg
}

// compose is the sender side of EQ-, GE- and LE-OCBE: it checks that the
// bit commitments recombine, draws the pads and y, and wraps msg.
func (o *refOCBE) compose(pred ocbe.Predicate, ell int, req *ocbe.Request, msg []byte) *ocbe.Envelope {
	ref := g2.PaperRef
	c := refElem(o.t, req.Commitment)
	y := o.random()
	env := &ocbe.Envelope{Op: pred.Op, X0: pred.X0, Eta: ref.Marshal(ref.Exp(o.h, y))}
	var key [sym.KeySize]byte
	if pred.Op == ocbe.EQ {
		sigma := ref.Exp(ref.Op(c, ref.Exp(o.g, new(big.Int).Neg(pred.X0))), y)
		key = sym.DeriveKey([]byte("ocbe/eq"), ref.Marshal(sigma))
	} else {
		// GE: Π c_i^{2^i} = c·g^{−x0}; LE: Π c_i^{2^i} = g^{x0}·c^{−1}.
		target := ref.Op(c, ref.Exp(o.g, new(big.Int).Neg(pred.X0)))
		if pred.Op == ocbe.LE {
			target = ref.Op(ref.Exp(o.g, pred.X0), ref.Inverse(c))
		}
		gInv := ref.Inverse(o.g)
		recomb := ref.Identity()
		pads := make([]byte, ell*sha256.Size)
		if _, err := rand.Read(pads); err != nil {
			o.t.Fatal(err)
		}
		env.Ell = ell
		for i, enc := range req.Bits[0].Cs {
			ci := refElem(o.t, enc)
			recomb = ref.Op(recomb, ref.Exp(ci, new(big.Int).Lsh(big.NewInt(1), uint(i))))
			pad := pads[i*sha256.Size : (i+1)*sha256.Size]
			env.Bits = append(env.Bits, ocbe.BitPair{
				C0: xor(sigmaPad(ref.Exp(ci, y)), pad),
				C1: xor(sigmaPad(ref.Exp(ref.Op(ci, gInv), y)), pad),
			})
		}
		if !ref.Equal(recomb, target) {
			o.t.Fatal("bit commitments do not recombine on the reference group")
		}
		key = sym.DeriveKey([]byte("ocbe/bitwise"), pads)
	}
	ct, err := sym.Encrypt(key, msg)
	if err != nil {
		o.t.Fatal(err)
	}
	env.C = ct
	return env
}

// TestOCBECrossPath runs EQ and GE envelope round trips with the sender and
// receiver on different genus-2 implementations, in both directions: ocbe
// on the paper curve against the reference OCBE above. Passing means the
// registration wire format is the reference's, byte for byte: commitments,
// bit commitments and envelopes produced by either are accepted and opened
// by the other.
func TestOCBECrossPath(t *testing.T) {
	if testing.Short() {
		t.Skip("reference-path jacobian arithmetic is slow; skipped in -short mode")
	}
	p, err := pedersen.Setup(g2.MustPaperCurve(), []byte("ocbe-crosspath"))
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefOCBE(t, p)
	msg := []byte("css-payload")
	const ell = 5
	for _, tc := range []struct {
		name string
		x    int64
		pred ocbe.Predicate
	}{
		{"eq", 41, ocbe.Predicate{Op: ocbe.EQ, X0: big.NewInt(41)}},
		{"ge", 13, ocbe.Predicate{Op: ocbe.GE, X0: big.NewInt(9)}},
	} {
		x := big.NewInt(tc.x)
		t.Run(tc.name+"/fast-to-slow", func(t *testing.T) {
			ref.t = t
			req, wit := ref.prepare(x, ref.random(), tc.pred, ell)
			env, err := ocbe.Compose(p, tc.pred, ell, req, msg)
			if err != nil {
				t.Fatal(err)
			}
			if got := ref.open(env, wit); !bytes.Equal(got, msg) {
				t.Error("payload mismatch across paths")
			}
		})
		t.Run(tc.name+"/slow-to-fast", func(t *testing.T) {
			ref.t = t
			_, r, err := p.CommitRandom(x)
			if err != nil {
				t.Fatal(err)
			}
			recv := ocbe.NewReceiver(p, x, r)
			wit, req, err := recv.Prepare(tc.pred, ell)
			if err != nil {
				t.Fatal(err)
			}
			got, err := recv.Open(ref.compose(tc.pred, ell, req, msg), wit)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Error("payload mismatch across paths")
			}
		})
	}
}

// TestOCBEComposeBatchCrossPath pins the pooled compose path: a batch of
// mixed EQ/GE/LE envelopes composed through the lane-batched kernel must
// open on the reference group, and envelopes the reference composes for the
// same predicates must open on the paper curve.
func TestOCBEComposeBatchCrossPath(t *testing.T) {
	if testing.Short() {
		t.Skip("reference-path jacobian arithmetic is slow; skipped in -short mode")
	}
	p, err := pedersen.Setup(g2.MustPaperCurve(), []byte("ocbe-crosspath"))
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefOCBE(t, p)
	const ell = 5
	msg := []byte("css-payload")
	x := big.NewInt(13)
	preds := []ocbe.Predicate{
		{Op: ocbe.EQ, X0: big.NewInt(13)},
		{Op: ocbe.GE, X0: big.NewInt(9)},
		{Op: ocbe.LE, X0: big.NewInt(20)},
	}

	t.Run("fast-to-slow", func(t *testing.T) {
		ref.t = t
		r := ref.random()
		items := make([]ocbe.ComposeItem, len(preds))
		wits := make([]*refWitness, len(preds))
		for i, pred := range preds {
			req, wit := ref.prepare(x, r, pred, ell)
			items[i], wits[i] = ocbe.ComposeItem{Pred: pred, Ell: ell, Req: req, Msg: msg}, wit
		}
		envs, errs := ocbe.ComposeBatch(p, items)
		for i := range envs {
			if errs[i] != nil {
				t.Fatalf("item %d: %v", i, errs[i])
			}
			if got := ref.open(envs[i], wits[i]); !bytes.Equal(got, msg) {
				t.Errorf("item %d (%v): payload mismatch across paths", i, preds[i])
			}
		}
	})
	t.Run("slow-to-fast", func(t *testing.T) {
		ref.t = t
		_, r, err := p.CommitRandom(x)
		if err != nil {
			t.Fatal(err)
		}
		recv := ocbe.NewReceiver(p, x, r)
		for i, pred := range preds {
			wit, req, err := recv.Prepare(pred, ell)
			if err != nil {
				t.Fatal(err)
			}
			got, err := recv.Open(ref.compose(pred, ell, req, msg), wit)
			if err != nil {
				t.Fatalf("item %d (%v): open: %v", i, pred, err)
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("item %d (%v): payload mismatch across paths", i, pred)
			}
		}
	})
}
