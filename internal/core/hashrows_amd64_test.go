//go:build !purego

package core

import (
	"math/rand"
	"testing"

	"ppcd/internal/ff64"
)

// TestOneBlockEligibility pins which inputs reach the assembly kernel: it
// reads exactly NonceSize bytes per nonce, so a row with any other nonce
// length — or too wide for one block — must be refused, not truncated.
func TestOneBlockEligibility(t *testing.T) {
	if !hasSHANI {
		t.Skip("no SHA extensions on this CPU")
	}
	rng := rand.New(rand.NewSource(18))
	dst := make([]ff64.Elem, 4)
	std := testNonces(rng, 4, NonceSize)
	for m := 0; m <= oneBlockCSS+2; m++ {
		if got, want := hashRowsOneBlock(dst, testRow(rng, m), std), m <= oneBlockCSS; got != want {
			t.Errorf("m=%d: kernel used = %v, want %v", m, got, want)
		}
	}
	for _, size := range []int{0, NonceSize - 1, NonceSize + 1, 4096} {
		zs := testNonces(rng, 4, NonceSize)
		zs[3] = testNonces(rng, 1, size)[0]
		if hashRowsOneBlock(dst, testRow(rng, 2), zs) {
			t.Errorf("kernel accepted a %d-byte nonce", size)
		}
	}
}
