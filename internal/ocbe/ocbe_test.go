package ocbe

import (
	"bytes"
	"math/big"
	"sync"
	"testing"

	"ppcd/internal/g2"
	"ppcd/internal/pedersen"
)

// Tests run over the paper's genus-2 Jacobian, the one commitment group, so
// every compose and open goes through the lane kernel that production runs.
var (
	paramsOnce sync.Once
	testParams *pedersen.Params
)

func params(t *testing.T) *pedersen.Params {
	t.Helper()
	paramsOnce.Do(func() {
		p, err := pedersen.Setup(g2.MustPaperCurve(), []byte("ocbe-test"))
		if err != nil {
			panic(err)
		}
		testParams = p
	})
	return testParams
}

const testEll = 10

// runProtocol executes the full OCBE flow for a receiver with committed
// value x against predicate pred and returns the opened payload (or error).
func runProtocol(t *testing.T, x int64, pred Predicate, msg []byte) ([]byte, error) {
	t.Helper()
	p := params(t)
	c, r, err := p.CommitRandom(big.NewInt(x))
	if err != nil {
		t.Fatal(err)
	}
	_ = c
	recv := NewReceiver(p, big.NewInt(x), r)
	wit, req, err := recv.Prepare(pred, testEll)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Compose(p, pred, testEll, req, msg)
	if err != nil {
		t.Fatal(err)
	}
	return recv.Open(env, wit)
}

// TestComposeBatch covers the pooled compose path: mixed predicates including the two-branch ≠, round trips
// for every envelope, and per-item error isolation — one corrupt request
// must not block the rest of the batch.
func TestComposeBatch(t *testing.T) {
	p := params(t)
	msg := []byte("batched css payload")
	x := int64(25)
	_, r, err := p.CommitRandom(big.NewInt(x))
	if err != nil {
		t.Fatal(err)
	}
	recv := NewReceiver(p, big.NewInt(x), r)
	preds := []Predicate{
		{Op: EQ, X0: big.NewInt(25)},
		{Op: GE, X0: big.NewInt(10)},
		{Op: NE, X0: big.NewInt(11)},
		{Op: LE, X0: big.NewInt(100)},
	}
	items := make([]ComposeItem, 0, len(preds)+1)
	wits := make([]*Witness, 0, len(preds))
	for _, pred := range preds {
		wit, req, err := recv.Prepare(pred, testEll)
		if err != nil {
			t.Fatal(err)
		}
		wits = append(wits, wit)
		items = append(items, ComposeItem{Pred: pred, Ell: testEll, Req: req, Msg: msg})
	}
	// A corrupt item: commitment bytes that do not unmarshal.
	items = append(items, ComposeItem{
		Pred: Predicate{Op: EQ, X0: big.NewInt(1)},
		Ell:  testEll,
		Req:  &Request{Commitment: []byte{0xff}, Bits: []*BitCommitments{{}}},
		Msg:  msg,
	})
	envs, errs := ComposeBatch(p, items)
	if len(envs) != len(items) || len(errs) != len(items) {
		t.Fatalf("shape: %d envs, %d errs for %d items", len(envs), len(errs), len(items))
	}
	for i := range preds {
		if errs[i] != nil {
			t.Fatalf("item %d (%v): %v", i, preds[i], errs[i])
		}
		got, err := recv.Open(envs[i], wits[i])
		if err != nil {
			t.Fatalf("item %d (%v): open: %v", i, preds[i], err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("item %d (%v): payload mismatch", i, preds[i])
		}
	}
	bad := len(items) - 1
	if errs[bad] == nil || envs[bad] != nil {
		t.Fatalf("corrupt item: want error and nil envelope, got err=%v env=%v", errs[bad], envs[bad])
	}
}

func TestAllOpsSatisfiedAndUnsatisfied(t *testing.T) {
	msg := []byte("the conditional subscription secret")
	cases := []struct {
		name string
		x    int64
		pred Predicate
		want bool
	}{
		{"eq-true", 28, Predicate{EQ, big.NewInt(28)}, true},
		{"eq-false", 28, Predicate{EQ, big.NewInt(29)}, false},
		{"ge-true-strict", 60, Predicate{GE, big.NewInt(59)}, true},
		{"ge-true-boundary", 59, Predicate{GE, big.NewInt(59)}, true},
		{"ge-false", 58, Predicate{GE, big.NewInt(59)}, false},
		{"gt-true", 60, Predicate{GT, big.NewInt(59)}, true},
		{"gt-false-boundary", 59, Predicate{GT, big.NewInt(59)}, false},
		{"le-true-boundary", 5, Predicate{LE, big.NewInt(5)}, true},
		{"le-true", 4, Predicate{LE, big.NewInt(5)}, true},
		{"le-false", 6, Predicate{LE, big.NewInt(5)}, false},
		{"lt-true", 4, Predicate{LT, big.NewInt(5)}, true},
		{"lt-false-boundary", 5, Predicate{LT, big.NewInt(5)}, false},
		{"ne-true-above", 7, Predicate{NE, big.NewInt(5)}, true},
		{"ne-true-below", 3, Predicate{NE, big.NewInt(5)}, true},
		{"ne-false", 5, Predicate{NE, big.NewInt(5)}, false},
		{"ge-zero-value", 0, Predicate{GE, big.NewInt(0)}, true},
		{"le-zero-threshold", 0, Predicate{LE, big.NewInt(0)}, true},
		{"lt-zero-threshold", 0, Predicate{LT, big.NewInt(0)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := runProtocol(t, tc.x, tc.pred, msg)
			if tc.want {
				if err != nil {
					t.Fatalf("expected open, got %v", err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("payload mismatch")
				}
			} else if err == nil {
				t.Fatalf("expected failure, opened successfully")
			}
		})
	}
}

func TestPredicateEval(t *testing.T) {
	x := big.NewInt(10)
	checks := []struct {
		p    Predicate
		want bool
	}{
		{Predicate{EQ, big.NewInt(10)}, true},
		{Predicate{NE, big.NewInt(10)}, false},
		{Predicate{GT, big.NewInt(9)}, true},
		{Predicate{GE, big.NewInt(11)}, false},
		{Predicate{LT, big.NewInt(11)}, true},
		{Predicate{LE, big.NewInt(9)}, false},
	}
	for _, c := range checks {
		if c.p.Eval(x) != c.want {
			t.Errorf("%v.Eval(10) = %v", c.p, !c.want)
		}
	}
}

func TestParseOp(t *testing.T) {
	good := map[string]CompareOp{"=": EQ, "==": EQ, "!=": NE, "<>": NE, ">": GT, ">=": GE, "<": LT, "<=": LE}
	for s, want := range good {
		got, err := ParseOp(s)
		if err != nil || got != want {
			t.Errorf("ParseOp(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseOp("~"); err == nil {
		t.Error("bad op accepted")
	}
}

func TestOpString(t *testing.T) {
	if EQ.String() != "=" || NE.String() != "!=" || GE.String() != ">=" {
		t.Error("op strings wrong")
	}
	if CompareOp(99).String() == "" {
		t.Error("unknown op has empty string")
	}
}

func TestSenderRejectsForgedBitCommitments(t *testing.T) {
	// A malicious receiver that sends bit commitments not recombining to its
	// registered commitment must be rejected (ErrBadCommitments).
	p := params(t)
	x := big.NewInt(58)
	_, r, err := p.CommitRandom(x)
	if err != nil {
		t.Fatal(err)
	}
	recv := NewReceiver(p, x, r)
	pred := Predicate{GE, big.NewInt(59)}
	_, req, err := recv.Prepare(pred, testEll)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: replace the first bit commitment with a commitment to 1 under
	// fresh randomness.
	forged, _, err := p.CommitRandom(big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	req.Bits[0].Cs[0] = p.G.Marshal(forged)
	if _, err := Compose(p, pred, testEll, req, []byte("m")); err != ErrBadCommitments {
		t.Errorf("expected ErrBadCommitments, got %v", err)
	}
}

func TestEllValidation(t *testing.T) {
	p := params(t)
	recv := NewReceiver(p, big.NewInt(5), big.NewInt(7))
	if _, _, err := recv.Prepare(Predicate{GE, big.NewInt(3)}, 0); err != ErrEllRange {
		t.Errorf("ell=0: got %v", err)
	}
	// ell too large for the group order.
	if _, _, err := recv.Prepare(Predicate{GE, big.NewInt(3)}, 4096); err != ErrEllRange {
		t.Errorf("huge ell: got %v", err)
	}
}

func TestComposeValidation(t *testing.T) {
	p := params(t)
	pred := Predicate{GE, big.NewInt(3)}
	if _, err := Compose(p, pred, testEll, &Request{Commitment: []byte("junk")}, []byte("m")); err == nil {
		t.Error("garbage commitment accepted")
	}
	recv := NewReceiver(p, big.NewInt(5), big.NewInt(7))
	_, req, err := recv.Prepare(Predicate{EQ, big.NewInt(5)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// EQ request used for GE predicate: shape mismatch (bits missing).
	if _, err := Compose(p, pred, testEll, req, []byte("m")); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestOpenShapeMismatch(t *testing.T) {
	p := params(t)
	recv := NewReceiver(p, big.NewInt(5), big.NewInt(7))
	witEQ, reqEQ, err := recv.Prepare(Predicate{EQ, big.NewInt(5)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Compose(p, Predicate{EQ, big.NewInt(5)}, 0, reqEQ, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Open(env, nil); err == nil {
		t.Error("nil witness accepted")
	}
	// Mismatched witness for an NE envelope.
	env.Op = NE
	if _, err := recv.Open(env, witEQ); err == nil {
		t.Error("NE envelope with EQ witness accepted")
	}
}

func TestObliviousness(t *testing.T) {
	// The sender's view (the request) must be identically shaped whether or
	// not the receiver satisfies the predicate — same number of bit
	// commitments, all valid group elements. This is the structural half of
	// the obliviousness guarantee.
	p := params(t)
	pred := Predicate{GE, big.NewInt(59)}
	shapes := make([]int, 0, 2)
	for _, x := range []int64{60, 58} {
		_, r, err := p.CommitRandom(big.NewInt(x))
		if err != nil {
			t.Fatal(err)
		}
		recv := NewReceiver(p, big.NewInt(x), r)
		_, req, err := recv.Prepare(pred, testEll)
		if err != nil {
			t.Fatal(err)
		}
		if len(req.Bits) != 1 {
			t.Fatal("unexpected request shape")
		}
		shapes = append(shapes, len(req.Bits[0].Cs))
		for _, enc := range req.Bits[0].Cs {
			if _, err := p.G.Unmarshal(enc); err != nil {
				t.Fatalf("x=%d produced invalid commitment: %v", x, err)
			}
		}
		// Crucially, Compose succeeds in both cases — the sender cannot
		// tell the branches apart.
		if _, err := Compose(p, pred, testEll, req, []byte("m")); err != nil {
			t.Fatalf("x=%d: compose failed: %v", x, err)
		}
	}
	if shapes[0] != shapes[1] {
		t.Error("request shapes differ between satisfied and unsatisfied receivers")
	}
}

func TestLargeAttributeValues(t *testing.T) {
	// Values near the top of the ell-bit range.
	msg := []byte("m")
	top := int64(1<<testEll - 1)
	if got, err := runProtocol(t, top, Predicate{GE, big.NewInt(0)}, msg); err != nil || !bytes.Equal(got, msg) {
		t.Errorf("top value GE 0 failed: %v", err)
	}
	if got, err := runProtocol(t, 0, Predicate{LE, big.NewInt(top)}, msg); err != nil || !bytes.Equal(got, msg) {
		t.Errorf("0 LE top failed: %v", err)
	}
}

func TestWrongReceiverCannotOpen(t *testing.T) {
	// An envelope composed for one commitment cannot be opened by a receiver
	// with a different blinding, even with the same attribute value.
	p := params(t)
	x := big.NewInt(42)
	pred := Predicate{EQ, big.NewInt(42)}
	_, r1, err := p.CommitRandom(x)
	if err != nil {
		t.Fatal(err)
	}
	recv1 := NewReceiver(p, x, r1)
	_, req, err := recv1.Prepare(pred, 0)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Compose(p, pred, 0, req, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := p.CommitRandom(x)
	if err != nil {
		t.Fatal(err)
	}
	recv2 := NewReceiver(p, x, r2)
	wit2, _, err := recv2.Prepare(pred, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv2.Open(env, wit2); err == nil {
		t.Error("receiver with different blinding opened the envelope")
	}
}

func TestEmptyMessage(t *testing.T) {
	got, err := runProtocol(t, 7, Predicate{EQ, big.NewInt(7)}, []byte{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Error("empty payload round trip failed")
	}
}
