package sym

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key := DeriveKey([]byte("secret"))
	for _, pt := range [][]byte{nil, {}, []byte("x"), []byte("hello world"), bytes.Repeat([]byte("A"), 10000)} {
		ct, err := Encrypt(key, pt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decrypt(key, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("round trip mismatch for %d bytes", len(pt))
		}
	}
}

func TestDecryptWrongKeyFails(t *testing.T) {
	ct, err := Encrypt(DeriveKey([]byte("k1")), []byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decrypt(DeriveKey([]byte("k2")), ct); err != ErrDecrypt {
		t.Errorf("wrong key: got %v, want ErrDecrypt", err)
	}
}

func TestDecryptTamperedFails(t *testing.T) {
	key := DeriveKey([]byte("k"))
	ct, err := Encrypt(key, []byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	ct[len(ct)-1] ^= 0x01
	if _, err := Decrypt(key, ct); err != ErrDecrypt {
		t.Errorf("tampered: got %v", err)
	}
}

func TestDecryptTruncatedFails(t *testing.T) {
	key := DeriveKey([]byte("k"))
	if _, err := Decrypt(key, []byte{1, 2, 3}); err != ErrDecrypt {
		t.Errorf("short ciphertext: got %v", err)
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	key := DeriveKey([]byte("k"))
	c1, _ := Encrypt(key, []byte("same"))
	c2, _ := Encrypt(key, []byte("same"))
	if bytes.Equal(c1, c2) {
		t.Error("two encryptions of same plaintext identical (nonce reuse?)")
	}
}

func TestDeriveKeyProperties(t *testing.T) {
	if DeriveKey([]byte("a")) != DeriveKey([]byte("a")) {
		t.Error("DeriveKey not deterministic")
	}
	if DeriveKey([]byte("a")) == DeriveKey([]byte("b")) {
		t.Error("DeriveKey collision")
	}
	// Multi-part material is order sensitive.
	if DeriveKey([]byte("a"), []byte("b")) == DeriveKey([]byte("b"), []byte("a")) {
		t.Error("DeriveKey ignores order")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(keySeed, pt []byte) bool {
		key := DeriveKey(keySeed)
		ct, err := Encrypt(key, pt)
		if err != nil {
			return false
		}
		got, err := Decrypt(key, ct)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestOpenIntoScratch pins the open-into-dst form a shard scan uses: a hit
// appends the plaintext to dst without reallocating, and a miss — the wrong
// key, which is every shard but one — allocates no plaintext-sized buffer,
// only what building the cipher costs whatever the ciphertext's length.
func TestOpenIntoScratch(t *testing.T) {
	right, wrong := DeriveKey([]byte("right")), DeriveKey([]byte("wrong"))
	pt := bytes.Repeat([]byte("subdocument "), 4096) // 48 kB
	big, err := Encrypt(right, pt)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Encrypt(right, nil)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, len(big))

	got, err := Open(scratch, right, big)
	if err != nil || !bytes.Equal(got, pt) || &got[0] != &scratch[:1][0] {
		t.Fatalf("hit: err %v, %d bytes, in scratch %v", err, len(got), len(got) > 0 && &got[0] == &scratch[:1][0])
	}
	if _, err := Open(scratch, wrong, big); err != ErrDecrypt {
		t.Fatalf("miss: got %v, want ErrDecrypt", err)
	}
	if _, err := Open(scratch, right, big[:5]); err != ErrDecrypt {
		t.Fatalf("truncated: got %v, want ErrDecrypt", err)
	}

	miss := func(dst, ct []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := Open(dst, wrong, ct); err != ErrDecrypt {
				t.Fatal("wrong key opened the ciphertext")
			}
		})
	}
	base := miss(scratch, small)
	if got := miss(scratch, big); got != base {
		t.Errorf("a miss on %d bytes into scratch makes %.0f allocations, %.0f on an empty plaintext: it allocated for the plaintext", len(big), got, base)
	}
	if got := miss(nil, big); got != base+1 {
		t.Errorf("a miss with no dst makes %.0f allocations, want the cipher's %.0f plus the plaintext", got, base)
	}
}
