// Package sym provides the semantically secure symmetric encryption the
// paper's envelopes and subdocument payloads use. The paper specifies AES;
// we use AES-256-GCM so that decryption under a wrong key fails loudly —
// OCBE receivers and unqualified subscribers detect failure through the
// authentication tag rather than by inspecting plaintext.
package sym

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// KeySize is the symmetric key length in bytes (AES-256).
const KeySize = 32

// ErrDecrypt is returned when authenticated decryption fails, i.e. the key
// is wrong or the ciphertext was tampered with.
var ErrDecrypt = errors.New("sym: decryption failed (wrong key or corrupted ciphertext)")

// DeriveKey maps arbitrary secret material to a KeySize-byte key with a
// domain-separated SHA-256. OCBE uses it to turn the shared group element σ
// into an envelope key (the paper's H(σ)).
func DeriveKey(material ...[]byte) [KeySize]byte {
	h := sha256.New()
	h.Write([]byte("ppcd/sym/derive/v1"))
	for _, m := range material {
		h.Write(m)
	}
	var key [KeySize]byte
	copy(key[:], h.Sum(nil))
	return key
}

// Encrypt seals plaintext under key with AES-256-GCM and a random nonce; the
// nonce is prepended to the returned ciphertext.
func Encrypt(key [KeySize]byte, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("sym: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sym: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("sym: nonce: %w", err)
	}
	return gcm.Seal(nonce, nonce, plaintext, nil), nil
}

// Decrypt opens a ciphertext produced by Encrypt. It returns ErrDecrypt when
// the key is wrong or the data was modified.
func Decrypt(key [KeySize]byte, ciphertext []byte) ([]byte, error) {
	return Open(nil, key, ciphertext)
}

// Open is Decrypt appending the plaintext to dst, so a caller that tries
// many keys against one ciphertext (a grouped-header shard scan, where every
// wrong shard fails here) reuses one buffer instead of allocating a
// plaintext per attempt. dst's spare capacity may be overwritten even when
// ErrDecrypt is returned.
func Open(dst []byte, key [KeySize]byte, ciphertext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("sym: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sym: %w", err)
	}
	if len(ciphertext) < gcm.NonceSize() {
		return nil, ErrDecrypt
	}
	nonce, body := ciphertext[:gcm.NonceSize()], ciphertext[gcm.NonceSize():]
	pt, err := gcm.Open(dst, nonce, body, nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}
