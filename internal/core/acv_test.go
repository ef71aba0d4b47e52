package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ppcd/internal/ff64"
)

// randRows builds nRows subscriber rows with 1..maxConds CSSs each.
func randRows(rng *rand.Rand, nRows, maxConds int) [][]CSS {
	rows := make([][]CSS, nRows)
	for i := range rows {
		m := 1 + rng.Intn(maxConds)
		css := make([]CSS, m)
		for j := range css {
			css[j] = ff64.New(rng.Uint64())
			if css[j] == ff64.Zero {
				css[j] = ff64.One
			}
		}
		rows[i] = css
	}
	return rows
}

func TestSoundnessAllQualifiedDerive(t *testing.T) {
	// Paper §VI-B1: every qualified subscriber derives the exact key.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		rows := randRows(rng, 3+rng.Intn(10), 4)
		hdr, key, err := Build(rows, len(rows)+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		for i, css := range rows {
			got, err := DeriveKey(css, hdr)
			if err != nil {
				t.Fatal(err)
			}
			if got != key {
				t.Fatalf("trial %d row %d: derived %v, want %v", trial, i, got, key)
			}
		}
	}
}

func TestUnqualifiedDoesNotDerive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randRows(rng, 5, 3)
	hdr, key, err := Build(rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	// An outsider with random CSSs recovers the key only with prob ~1/q.
	for trial := 0; trial < 20; trial++ {
		fake := randRows(rng, 1, 3)[0]
		got, err := DeriveKey(fake, hdr)
		if err != nil {
			t.Fatal(err)
		}
		if got == key {
			t.Fatalf("outsider derived the key")
		}
	}
}

func TestPartialCSSDoesNotDerive(t *testing.T) {
	// A subscriber holding only a strict subset of a policy's CSSs (e.g. the
	// level-58 nurse of Example 4) must not derive the key.
	rng := rand.New(rand.NewSource(13))
	rows := randRows(rng, 4, 1)
	twoCond := []CSS{ff64.New(11109), ff64.New(60987)}
	rows = append(rows, twoCond)
	hdr, key, err := Build(rows, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DeriveKey(twoCond[:1], hdr)
	if err != nil {
		t.Fatal(err)
	}
	if got == key {
		t.Fatal("partial CSS list derived the key")
	}
	got, err = DeriveKey(twoCond, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if got != key {
		t.Fatal("full CSS list failed to derive the key")
	}
}

func TestRekeyForwardSecrecy(t *testing.T) {
	// After removing a subscriber and rebuilding, the old CSSs must not
	// derive the new key (forward secrecy, §VI-B2).
	rng := rand.New(rand.NewSource(99))
	rows := randRows(rng, 6, 2)
	leaving := rows[5]
	hdr2, key2, err := Build(rows[:5], 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DeriveKey(leaving, hdr2)
	if err != nil {
		t.Fatal(err)
	}
	if got == key2 {
		t.Fatal("revoked subscriber derived the new key")
	}
	for _, css := range rows[:5] {
		if k, _ := DeriveKey(css, hdr2); k != key2 {
			t.Fatal("remaining subscriber lost access after rekey")
		}
	}
}

func TestRekeyBackwardSecrecy(t *testing.T) {
	// A newly joined subscriber must not derive a key broadcast before it
	// joined (backward secrecy).
	rng := rand.New(rand.NewSource(123))
	rows := randRows(rng, 5, 2)
	hdrOld, keyOld, err := Build(rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	newcomer := randRows(rng, 1, 2)[0]
	if k, _ := DeriveKey(newcomer, hdrOld); k == keyOld {
		t.Fatal("newcomer derived the old key")
	}
}

func TestRekeyChangesKeyAndNonces(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randRows(rng, 4, 2)
	hdr1, key1, err := Build(rows, 6)
	if err != nil {
		t.Fatal(err)
	}
	hdr2, key2, err := Build(rows, 6)
	if err != nil {
		t.Fatal(err)
	}
	if key1 == key2 {
		t.Error("rekey produced identical key (prob ~1/q)")
	}
	if slices.EqualFunc(hdr1.Nonces(), hdr2.Nonces(), bytes.Equal) {
		t.Error("rekey reused all nonces")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, _, err := Build(nil, 5); err != ErrNoRows {
		t.Errorf("empty rows: got %v", err)
	}
	rows := [][]CSS{{ff64.One}, {ff64.New(2)}}
	if _, _, err := Build(rows, 1); err == nil {
		t.Error("N < rows should fail")
	}
	if _, _, err := Build([][]CSS{{}}, 3); err != ErrEmptyCSS {
		t.Errorf("empty CSS row: got %v", err)
	}
}

func TestDeriveKeyValidation(t *testing.T) {
	hdr := &Header{X: make([]ff64.Elem, 3)} // N = 2 and no seed to name its nonces
	if _, err := DeriveKey([]CSS{ff64.One}, hdr); err == nil {
		t.Error("malformed header should fail")
	}
	good := &Header{X: make([]ff64.Elem, 3), Seed: make([]byte, SeedSize)}
	if _, err := DeriveKey(nil, good); err != ErrEmptyCSS {
		t.Errorf("empty CSS: got %v", err)
	}
}

func TestHeaderSizeAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := randRows(rng, 3, 2)
	hdr, _, err := Build(rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantSize := 8*5 + NonceSize*4
	if hdr.Size() != wantSize {
		t.Errorf("Size = %d, want %d", hdr.Size(), wantSize)
	}
	if hdr.N() != 4 {
		t.Errorf("N = %d, want 4", hdr.N())
	}
	c := hdr.Clone()
	c.X[0] = ff64.Add(c.X[0], ff64.One)
	c.Seed[0] ^= 0xff
	if hdr.X[0] == c.X[0] || hdr.Seed[0] == c.Seed[0] {
		t.Error("clone aliases original")
	}
}

func TestHashRowDeterministicAndSensitive(t *testing.T) {
	css := []CSS{ff64.New(86571)}
	z := []byte("nonce-nonce-nonce")
	a1 := HashRow(css, z)
	a2 := HashRow(css, z)
	if a1 != a2 {
		t.Error("HashRow not deterministic")
	}
	if HashRow(css, []byte("other")) == a1 {
		t.Error("HashRow insensitive to nonce")
	}
	if HashRow([]CSS{ff64.New(86572)}, z) == a1 {
		t.Error("HashRow insensitive to CSS")
	}
	if HashRow([]CSS{ff64.New(86571), ff64.New(2)}, z) == a1 {
		t.Error("HashRow insensitive to extra CSS")
	}
}

func TestKeyIndistinguishabilityShape(t *testing.T) {
	// Two independent builds over the same rows give headers under which the
	// *same* KEV extracts different keys — X alone cannot pin down K.
	rng := rand.New(rand.NewSource(31))
	rows := randRows(rng, 3, 2)
	hdr1, key1, _ := Build(rows, 5)
	hdr2, key2, _ := Build(rows, 5)
	k1, _ := DeriveKey(rows[0], hdr1)
	k2, _ := DeriveKey(rows[0], hdr2)
	if k1 != key1 || k2 != key2 {
		t.Fatal("derivation failed")
	}
	if k1 == k2 {
		t.Error("independent sessions produced equal keys")
	}
}

func TestExpandKeyStable(t *testing.T) {
	a := ExpandKey(ff64.New(11))
	b := ExpandKey(ff64.New(11))
	if a != b {
		t.Error("ExpandKey not deterministic")
	}
	if a == ExpandKey(ff64.New(12)) {
		t.Error("ExpandKey collision on different keys")
	}
}

func TestNewCSSNonZero(t *testing.T) {
	for i := 0; i < 32; i++ {
		c, err := NewCSS()
		if err != nil {
			t.Fatal(err)
		}
		if c == ff64.Zero {
			t.Fatal("NewCSS returned zero")
		}
	}
}

func TestPropertySoundness(t *testing.T) {
	// Property: for random row sets, Build+DeriveKey round-trips for every
	// row. This is the Lemma-1 soundness invariant.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := randRows(rng, 1+rng.Intn(6), 3)
		hdr, key, err := Build(rows, len(rows)+rng.Intn(3))
		if err != nil {
			return false
		}
		for _, css := range rows {
			k, err := DeriveKey(css, hdr)
			if err != nil || k != key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCollusionResistance(t *testing.T) {
	// Two subscribers, each holding one CSS of a two-condition policy,
	// cannot combine them the "wrong way" — only the exact ordered list of
	// the policy's CSSs derives the key. We check that concatenations in the
	// wrong order fail.
	cssA := ff64.New(1111)
	cssB := ff64.New(2222)
	rows := [][]CSS{{cssA, cssB}}
	hdr, key, err := Build(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := DeriveKey([]CSS{cssB, cssA}, hdr); k == key {
		t.Error("reordered CSSs derived the key")
	}
	if k, _ := DeriveKey([]CSS{cssA}, hdr); k == key {
		t.Error("single colluder derived the key")
	}
	if k, _ := DeriveKey([]CSS{cssA, cssB}, hdr); k != key {
		t.Error("correct order failed")
	}
}

func TestPaperExample4Shape(t *testing.T) {
	// Mirrors Example 4 (Pc4 = {acp3, acp4}): a doctor with one CSS and a
	// nurse-with-level with two CSSs; N = 3.
	doctor := []CSS{ff64.New(86571)}
	nurseRow := []CSS{ff64.New(11109), ff64.New(60987)}
	otherDoctor := []CSS{ff64.New(13011)}
	rows := [][]CSS{doctor, otherDoctor, nurseRow}
	hdr, key, err := Build(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		k, err := DeriveKey(r, hdr)
		if err != nil || k != key {
			t.Fatalf("row failed to derive: %v %v", k, err)
		}
	}
	// The level-58 nurse holds only the role CSS — must fail.
	if k, _ := DeriveKey([]CSS{ff64.New(60987)}, hdr); k == key {
		t.Fatal("unqualified nurse derived K4")
	}
}
