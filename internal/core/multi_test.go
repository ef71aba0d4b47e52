package core

import (
	"math/rand"
	"testing"

	"ppcd/internal/ff64"
)

func TestBuildMultiSharedSession(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := randRows(rng, 6, 2)
	headers, keys, err := BuildMulti(rows, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 3 || len(keys) != 3 {
		t.Fatalf("got %d headers, %d keys", len(headers), len(keys))
	}
	// All headers share the nonce set.
	for i := 1; i < 3; i++ {
		for j := range headers[0].Zs {
			if string(headers[0].Zs[j]) != string(headers[i].Zs[j]) {
				t.Fatal("nonces not shared")
			}
		}
	}
	// Keys are pairwise distinct (probability of collision ~1/q).
	if keys[0] == keys[1] || keys[1] == keys[2] || keys[0] == keys[2] {
		t.Error("duplicate keys in shared session")
	}
	// Every subscriber derives every key.
	for _, css := range rows {
		for i, hdr := range headers {
			k, err := DeriveKey(css, hdr)
			if err != nil || k != keys[i] {
				t.Fatalf("derivation failed for doc %d: %v", i, err)
			}
		}
	}
}

func TestBuildMultiValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rows := randRows(rng, 3, 1)
	if _, _, err := BuildMulti(rows, 4, 0); err == nil {
		t.Error("count=0 accepted")
	}
	if _, _, err := BuildMulti(nil, 4, 1); err != ErrNoRows {
		t.Errorf("empty rows: %v", err)
	}
	if _, _, err := BuildMulti(rows, 2, 1); err == nil {
		t.Error("N < rows accepted")
	}
	if _, _, err := BuildMulti([][]CSS{{}}, 4, 1); err != ErrEmptyCSS {
		t.Errorf("empty CSS: %v", err)
	}
}

func TestKEVCacheAmortizesDerivation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows := randRows(rng, 5, 2)
	headers, keys, err := BuildMulti(rows, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewKEVCache(rows[2], headers[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, hdr := range headers {
		k, err := cache.Derive(hdr)
		if err != nil {
			t.Fatal(err)
		}
		if k != keys[i] {
			t.Fatalf("cached derivation wrong for doc %d", i)
		}
	}
	// Mismatched header length is rejected.
	other, _, err := Build(rows, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Derive(other); err == nil {
		t.Error("cache accepted header with different N")
	}
}

func TestKEVCacheValidation(t *testing.T) {
	if _, err := NewKEVCache(nil, &Header{X: make([]ff64.Elem, 2), Zs: [][]byte{{1}}}); err != ErrEmptyCSS {
		t.Errorf("empty css: %v", err)
	}
}

func TestCrossKeyIndependenceInSharedSession(t *testing.T) {
	// §VIII-D advantage: unlike the marker scheme, learning one session key
	// gives no algebraic handle on another. Check that an outsider knowing
	// k1 still fails to derive k2 (the keys come from independent kernel
	// samples).
	rng := rand.New(rand.NewSource(14))
	rows := randRows(rng, 4, 2)
	headers, keys, err := BuildMulti(rows, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// X vectors differ even though nonces are shared.
	same := true
	for i := range headers[0].X {
		if headers[0].X[i] != headers[1].X[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("shared-session headers have identical X")
	}
	// The XOR-style attack of the marker scheme has no analogue: X1 - X2 is
	// NOT (k1 - k2, 0, …, 0) because the ACVs are independent.
	diffIsKeyDelta := headers[0].X[0] == ff64.Add(headers[1].X[0], ff64.Sub(keys[0], keys[1]))
	tailEqual := true
	for i := 1; i < len(headers[0].X); i++ {
		if headers[0].X[i] != headers[1].X[i] {
			tailEqual = false
			break
		}
	}
	if diffIsKeyDelta && tailEqual {
		t.Error("X difference leaks key delta (ACVs not independent)")
	}
}

func TestBuildGrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rows := randRows(rng, 23, 2)
	g, key, err := BuildGrouped(rows, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Shards) != 5 { // ceil(23/5)
		t.Fatalf("shards = %d, want 5", len(g.Shards))
	}
	if g.Size() == 0 {
		t.Error("zero grouped size")
	}
	// Every subscriber recovers the same key from some group.
	for i, css := range rows {
		k, idx, err := DeriveKeyGrouped(css, g, func(k ff64.Elem) bool { return k == key })
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if k != key {
			t.Fatalf("row %d: wrong key", i)
		}
		if idx != i/5 {
			t.Fatalf("row %d: derived from group %d, expected %d", i, idx, i/5)
		}
	}
	// An outsider fails across all groups.
	outsider := randRows(rng, 1, 2)[0]
	if _, _, err := DeriveKeyGrouped(outsider, g, func(k ff64.Elem) bool { return k == key }); err != ErrBadKey {
		t.Errorf("outsider: %v", err)
	}
}

func TestBuildGroupedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	rows := randRows(rng, 3, 1)
	if _, _, err := BuildGrouped(rows, 0); err == nil {
		t.Error("groupSize=0 accepted")
	}
	if _, _, err := BuildGrouped(nil, 5); err != ErrNoRows {
		t.Errorf("empty rows: %v", err)
	}
	if _, _, err := DeriveKeyGrouped(rows[0], nil, nil); err != ErrBadHeader {
		t.Error("nil grouped header accepted")
	}
}

func TestDeriveKeyGroupedNilVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := randRows(rng, 4, 1)
	g, key, err := BuildGrouped(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	k, _, err := DeriveKeyGrouped(rows[0], g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k != key {
		t.Error("nil-verify derivation wrong for first group member")
	}
}

func TestGroupedMatchesUngroupedSemantics(t *testing.T) {
	// groupSize >= len(rows) degenerates to a single small Build plus one
	// wrap of the configuration key.
	rng := rand.New(rand.NewSource(18))
	rows := randRows(rng, 6, 2)
	g, key, err := BuildGrouped(rows, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Shards) != 1 {
		t.Fatalf("shards = %d", len(g.Shards))
	}
	for _, css := range rows {
		s, err := DeriveKey(css, g.Shards[0].Hdr)
		if err != nil || g.Unwrap(0, s) != key {
			t.Fatal("single-shard derivation failed")
		}
	}
}

func TestGroupedWrapHidesKeyFromOtherShards(t *testing.T) {
	// Two-level secrecy: a member of shard 0 holds that shard's group key
	// but must not be able to unwrap the configuration key through any other
	// shard's wrap, and the group keys themselves must be pairwise distinct.
	rng := rand.New(rand.NewSource(19))
	rows := randRows(rng, 8, 2)
	g, key, err := BuildGrouped(rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Shards) != 2 {
		t.Fatalf("shards = %d", len(g.Shards))
	}
	s0, err := DeriveKey(rows[0], g.Shards[0].Hdr)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := DeriveKey(rows[4], g.Shards[1].Hdr)
	if err != nil {
		t.Fatal(err)
	}
	if s0 == s1 {
		t.Fatal("shards share a group key")
	}
	if g.Unwrap(0, s0) != key || g.Unwrap(1, s1) != key {
		t.Fatal("members cannot unwrap the configuration key")
	}
	if g.Unwrap(1, s0) == key {
		t.Error("shard-0 group key unwraps shard 1's wrap")
	}
}
