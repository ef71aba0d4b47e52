package core

import (
	"math/rand"
	"testing"

	"ppcd/internal/ff64"
)

// TestKeyDistributionUniformShape is a statistical sanity check of key
// indistinguishability (§VI-B2): keys derived by *unqualified* CSS lists
// from a fixed header should scatter across the field rather than cluster —
// we bucket the top bits of 512 derived values and require every bucket to
// be populated within loose bounds.
func TestKeyDistributionUniformShape(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rows := randRows(rng, 4, 2)
	hdr, _, err := Build(rows, 6)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 512
	const buckets = 8
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		fake := []CSS{ff64.New(rng.Uint64() | 1), ff64.New(rng.Uint64() | 1)}
		k, err := DeriveKey(fake, hdr)
		if err != nil {
			t.Fatal(err)
		}
		counts[uint64(k)>>58&(buckets-1)]++
	}
	for b, c := range counts {
		// Expected 64 per bucket; allow a wide band (4σ ≈ ±31).
		if c < 20 || c > 140 {
			t.Errorf("bucket %d has %d of %d samples: derived keys not scattered", b, c, samples)
		}
	}
}

// TestNoncesUniquePerBuild checks the z_j sequence freshness requirement
// (τ·N > 160): within one header, and across two headers, all nonces are
// pairwise distinct with overwhelming probability.
func TestNoncesUniquePerBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	rows := randRows(rng, 3, 1)
	h1, _, err := Build(rows, 16)
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := Build(rows, 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, h := range []*Header{h1, h2} {
		for _, z := range h.Nonces() {
			if len(z) != NonceSize {
				t.Fatalf("nonce size %d", len(z))
			}
			if seen[string(z)] {
				t.Fatal("duplicate nonce across sessions")
			}
			seen[string(z)] = true
		}
	}
}

// TestLargeScaleSoundness exercises the Lemma-1 soundness invariant at a
// realistic scale (hundreds of rows, padded N).
func TestLargeScaleSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("large build in -short mode")
	}
	rng := rand.New(rand.NewSource(79))
	rows := randRows(rng, 300, 3)
	hdr, key, err := Build(rows, 350)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rows); i += 17 {
		k, err := DeriveKey(rows[i], hdr)
		if err != nil || k != key {
			t.Fatalf("row %d failed: %v", i, err)
		}
	}
	if hdr.N() != 350 {
		t.Errorf("N = %d", hdr.N())
	}
}
