package idtoken

import (
	"math/big"
	"sync"
	"testing"

	"ppcd/internal/g2"
	"ppcd/internal/pedersen"
)

var (
	once       sync.Once
	testParams *pedersen.Params
	testMgr    *Manager
)

func setup(t *testing.T) (*pedersen.Params, *Manager) {
	t.Helper()
	once.Do(func() {
		p, err := pedersen.Setup(g2.MustPaperCurve(), []byte("idtoken-test"))
		if err != nil {
			panic(err)
		}
		m, err := NewManager(p)
		if err != nil {
			panic(err)
		}
		testParams, testMgr = p, m
	})
	return testParams, testMgr
}

func TestIssueAndVerify(t *testing.T) {
	p, m := setup(t)
	tok, sec, err := m.Issue("pn-1492", "age", big.NewInt(28))
	if err != nil {
		t.Fatal(err)
	}
	if tok.Nym != "pn-1492" || tok.Tag != "age" {
		t.Error("token fields wrong")
	}
	if err := Verify(p, m.PublicKey(), tok); err != nil {
		t.Errorf("valid token rejected: %v", err)
	}
	// The secret opens the commitment.
	c, err := p.G.Unmarshal(tok.Commitment)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Verify(c, sec.Value, sec.Blinding) {
		t.Error("secret does not open commitment")
	}
}

func TestIssueValidation(t *testing.T) {
	_, m := setup(t)
	if _, _, err := m.Issue("", "age", big.NewInt(1)); err == nil {
		t.Error("empty nym accepted")
	}
	if _, _, err := m.Issue("pn-1", "", big.NewInt(1)); err == nil {
		t.Error("empty tag accepted")
	}
	if _, _, err := m.Issue("pn-1", "age", big.NewInt(-5)); err == nil {
		t.Error("negative value accepted")
	}
	if _, _, err := m.Issue("pn-1", "age", m.Params().Order()); err == nil {
		t.Error("out-of-field value accepted")
	}
	if _, _, err := m.Issue("pn-1", "age", nil); err == nil {
		t.Error("nil value accepted")
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	p, m := setup(t)
	tok, _, err := m.Issue("pn-1", "role", EncodeValue(p.Order(), "nurse"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []func(*Token){
		func(t *Token) { t.Nym = "pn-2" },
		func(t *Token) { t.Tag = "level" },
		func(t *Token) { t.Sig[0] ^= 1 },
	}
	for i, mutate := range cases {
		bad := *tok
		bad.Sig = append([]byte(nil), tok.Sig...)
		bad.Commitment = append([]byte(nil), tok.Commitment...)
		mutate(&bad)
		if err := Verify(p, m.PublicKey(), &bad); err == nil {
			t.Errorf("case %d: tampered token accepted", i)
		}
	}
	if err := Verify(p, m.PublicKey(), nil); err == nil {
		t.Error("nil token accepted")
	}
	bad := *tok
	bad.Commitment = []byte("garbage")
	if err := Verify(p, m.PublicKey(), &bad); err == nil {
		t.Error("garbage commitment accepted")
	}
}

func TestVerifyRejectsForeignIssuer(t *testing.T) {
	p, m := setup(t)
	other, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	tok, _, err := other.Issue("pn-9", "age", big.NewInt(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, m.PublicKey(), tok); err == nil {
		t.Error("token from foreign issuer accepted")
	}
}

func TestIssueString(t *testing.T) {
	p, m := setup(t)
	tok, sec, err := m.IssueString("pn-3", "role", "doctor")
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, m.PublicKey(), tok); err != nil {
		t.Fatal(err)
	}
	if sec.Value.Cmp(EncodeValue(p.Order(), "doctor")) != 0 {
		t.Error("IssueString encoded value inconsistently")
	}
}

func TestEncodeValue(t *testing.T) {
	order := big.NewInt(1 << 20)
	// Numeric literals pass through.
	if EncodeValue(order, "28").Int64() != 28 {
		t.Error("numeric encode wrong")
	}
	if EncodeValue(order, "  59 ").Int64() != 59 {
		t.Error("whitespace not trimmed")
	}
	// Strings hash into field.
	v := EncodeValue(order, "nurse")
	if v.Sign() < 0 || v.Cmp(order) >= 0 {
		t.Error("hashed value out of range")
	}
	if EncodeValue(order, "nurse").Cmp(v) != 0 {
		t.Error("encoding not deterministic")
	}
	if EncodeValue(order, "doctor").Cmp(v) == 0 {
		t.Error("distinct strings collide (1/2^20 chance)")
	}
}

func TestIsNumeric(t *testing.T) {
	if !IsNumeric("42") || !IsNumeric(" 0 ") {
		t.Error("numerics rejected")
	}
	if IsNumeric("nurse") || IsNumeric("-1") || IsNumeric("") {
		t.Error("non-numerics accepted")
	}
}

func TestSigningBytesUnambiguous(t *testing.T) {
	// ("ab","c") and ("a","bc") must have different signing bytes.
	t1 := &Token{Nym: "ab", Tag: "c", Commitment: []byte("x")}
	t2 := &Token{Nym: "a", Tag: "bc", Commitment: []byte("x")}
	if string(t1.SigningBytes()) == string(t2.SigningBytes()) {
		t.Error("signing bytes ambiguous")
	}
}

func TestNewManagerNilParams(t *testing.T) {
	if _, err := NewManager(nil); err == nil {
		t.Error("nil params accepted")
	}
}
