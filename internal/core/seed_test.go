package core

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"ppcd/internal/linalg"
)

// TestExpandNoncesGolden pins the expansion to the AES-256 test vector and to
// its definition, z_j = AES-256_seed(BE128(j)), computed block by block. The
// purego CI step runs it without the AES instructions: publisher and
// subscriber must agree on the expansion whatever their hardware.
func TestExpandNoncesGolden(t *testing.T) {
	zero := make([]byte, SeedSize)
	want := []string{"dc95c078a2408989ad48a21492842087", "530f8afbc74536b9a963b4f1c4cb738b"}
	for j, z := range ExpandNonces(zero, 2) {
		if hex.EncodeToString(z) != want[j] {
			t.Errorf("ExpandNonces(0…0, 2)[%d] = %x, want %s", j, z, want[j])
		}
	}

	seed := make([]byte, SeedSize)
	rand.New(rand.NewSource(20)).Read(seed)
	block, err := aes.NewCipher(seed)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300 // past one byte of counter
	run := ExpandNonces(seed, n)
	if len(run) != n {
		t.Fatalf("%d nonces, want %d", len(run), n)
	}
	var ctr, z [aes.BlockSize]byte
	for j := range run {
		binary.BigEndian.PutUint64(ctr[8:], uint64(j))
		block.Encrypt(z[:], ctr[:])
		if !bytes.Equal(run[j], z[:]) {
			t.Fatalf("nonce %d = %x, AES_seed(%d) = %x", j, run[j], j, z)
		}
	}
}

// TestExpandNoncesPrefix: a shorter expansion is the front of a longer one,
// the nonces of a run are distinct, and two seeds name two runs. (The layout
// — one buffer, capped windows — is pinned by TestDrawNoncesFlatAndCapped.)
func TestExpandNoncesPrefix(t *testing.T) {
	seed := bytes.Repeat([]byte{7}, SeedSize)
	long := ExpandNonces(seed, 512)
	for _, k := range []int{0, 1, 2, 127, 128, 511, 512} {
		if short := ExpandNonces(seed, k); !SameNonces(short, long[:k]) {
			t.Errorf("ExpandNonces(s, %d) is not the front of ExpandNonces(s, 512)", k)
		}
	}
	seen := make(map[string]bool, len(long))
	for j, z := range long {
		if seen[string(z)] {
			t.Fatalf("nonce %d repeats an earlier one", j)
		}
		seen[string(z)] = true
	}
	if SameNonces(ExpandNonces(bytes.Repeat([]byte{8}, SeedSize), 4), long[:4]) {
		t.Error("two seeds, one run")
	}
}

// checkSeeded is the seed invariant: the header names its run, and its nonces
// are the first N of that run.
func checkSeeded(t *testing.T, what string, h *Header) {
	t.Helper()
	if !h.Seeded() {
		t.Fatalf("%s: header without a seed", what)
	}
	if len(h.X) != h.N()+1 || !SameNonces(h.Zs, ExpandNonces(h.Seed, h.N())) {
		t.Fatalf("%s: N=%d header does not hold the first nonces of its seed's run", what, h.N())
	}
}

// TestBuiltHeadersCarryTheirSeed: every header every builder returns satisfies
// the seed invariant; the headers of one session share the seed, different
// sessions do not.
func TestBuiltHeadersCarryTheirSeed(t *testing.T) {
	rows := engRows(0, 7, 2)

	h, _, err := Build(rows, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, "Build", h)

	multi, _, err := BuildMulti(rows, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range multi {
		checkSeeded(t, "BuildMulti", m)
		if !bytes.Equal(m.Seed, multi[0].Seed) {
			t.Error("BuildMulti: the documents of one session differ in seed")
		}
	}
	if bytes.Equal(h.Seed, multi[0].Seed) {
		t.Error("two sessions drew one seed")
	}

	g, _, err := BuildGrouped(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range g.Shards {
		checkSeeded(t, "BuildGrouped", sh.Hdr)
	}

	e := NewEngine(2)
	cfgs, err := e.RekeyAll([]ConfigSpec{
		{ID: "A", Sig: "1", Groups: []RowGroup{{ID: "a", Rows: rows[:3]}}},
		{ID: "B", Sig: "1", Groups: []RowGroup{{ID: "a", Rows: rows[:3]}, {ID: "b", Rows: rows[3:]}}, MinN: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, "RekeyAll A", cfgs["A"].Hdr)
	checkSeeded(t, "RekeyAll B", cfgs["B"].Hdr)
	if a, b := cfgs["A"].Hdr, cfgs["B"].Hdr; a.N() == b.N() || &a.Seed[0] != &b.Seed[0] || &a.Zs[0] != &b.Zs[0] {
		t.Errorf("RekeyAll: the configurations of one session (N=%d, N=%d) do not share its seed and run", a.N(), b.N())
	}

	grouped, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "G", Shards: []ShardSpec{
		{ID: "s0", Sig: "1", Rows: rows[:4]}, {ID: "s1", Sig: "1", Rows: rows[4:]},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	sh := grouped["G"].Hdr.Shards
	for _, s := range sh {
		checkSeeded(t, "RekeyAllGrouped", s.Hdr)
	}
	if sh[0].Hdr.N() == sh[1].Hdr.N() || &sh[0].Hdr.Seed[0] != &sh[1].Hdr.Seed[0] {
		t.Error("RekeyAllGrouped: the shards of one session do not share its seed and differ in N")
	}
	// A later session re-solves one shard: a fresh seed for it, the clean
	// shard keeps its header.
	again, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "G", Shards: []ShardSpec{
		{ID: "s0", Sig: "1", Rows: rows[:4]}, {ID: "s1", Sig: "2", Rows: rows[5:]},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	sh2 := again["G"].Hdr.Shards
	checkSeeded(t, "re-solved shard", sh2[1].Hdr)
	if sh2[0].Hdr != sh[0].Hdr || bytes.Equal(sh2[1].Hdr.Seed, sh[1].Hdr.Seed) {
		t.Error("second session: clean shard rebuilt, or dirty shard kept its seed")
	}
}

// TestHeaderCloneIsOneRun: a clone is equal, shares nothing, holds its nonces
// in one flat buffer — whatever their lengths — and costs a fixed number of
// allocations, not one per nonce.
func TestHeaderCloneIsOneRun(t *testing.T) {
	seed := bytes.Repeat([]byte{3}, SeedSize)
	seeded := &Header{X: make(linalg.Vector, 129), Zs: ExpandNonces(seed, 128), Seed: seed}
	uneven := &Header{X: make(linalg.Vector, 5), Zs: [][]byte{{1, 2, 3}, {4}, make([]byte, 40), {5, 6}}}
	for name, h := range map[string]*Header{"seeded": seeded, "uneven": uneven} {
		c := h.Clone()
		if !reflect.DeepEqual(c, h) {
			t.Fatalf("%s: clone differs from its source", name)
		}
		off := 0
		for j, z := range c.Zs {
			if cap(z) != len(z) || uintptr(unsafe.Pointer(&z[0]))-uintptr(unsafe.Pointer(&c.Zs[0][0])) != uintptr(off) {
				t.Fatalf("%s: cloned nonce %d is not the next capped window of one buffer", name, j)
			}
			off += len(z)
		}
		c.Zs[0][0] ^= 0xff
		c.X[0]++
		if h.Seeded() {
			c.Seed[0] ^= 0xff
		}
		if reflect.DeepEqual(c.Zs[0], h.Zs[0]) || c.X[0] == h.X[0] || h.Seeded() && c.Seed[0] == h.Seed[0] {
			t.Fatalf("%s: clone aliases its source", name)
		}
		if allocs := testing.AllocsPerRun(10, func() { h.Clone() }); allocs > 5 {
			t.Errorf("%s: Clone of N=%d takes %.0f allocations", name, h.N(), allocs)
		}
	}
}

// TestHeaderSizes: Size is Fig. 5 as built — X plus the nonces, whatever
// their lengths; WireSize is what a stream frame spends: X, a run reference
// and either a 40-byte seeded run entry or the run written out.
func TestHeaderSizes(t *testing.T) {
	h, _, err := Build(engRows(0, 4, 1), 512)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h.Size(), 8*513+16*512; got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
	if got, want := h.WireSize(), 8*513+4+40; got != want {
		t.Errorf("WireSize = %d, want %d", got, want)
	}
	bare := &Header{X: h.X, Zs: h.Zs}
	if bare.Size() != h.Size() || bare.WireSize() != h.Size()+12 {
		t.Errorf("without a seed: Size %d, WireSize %d; want %d and %d", bare.Size(), bare.WireSize(), h.Size(), h.Size()+12)
	}
	uneven := &Header{X: make(linalg.Vector, 4), Zs: [][]byte{make([]byte, 15), {}, make([]byte, 17)}}
	if got, want := uneven.Size(), 8*4+32; got != want {
		t.Errorf("Size of a header with 15-, 0- and 17-byte nonces = %d, want %d", got, want)
	}

	g, _, err := BuildGrouped(engRows(0, 7, 1), 3) // shards of 3, 3 and 1 rows, one session each
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.WireSize(), NonceSize+(8*4+8*4+8*2)+3*(4+8)+3*40; got != want {
		t.Errorf("grouped WireSize over three sessions = %d, want %d", got, want)
	}
	g.Shards[1].Hdr = &Header{X: g.Shards[1].Hdr.X, Zs: ExpandNonces(g.Shards[0].Hdr.Seed, 3), Seed: g.Shards[0].Hdr.Seed}
	if got, want := g.WireSize(), NonceSize+(8*4+8*4+8*2)+3*(4+8)+2*40; got != want {
		t.Errorf("grouped WireSize with two shards of one session = %d, want %d", got, want)
	}
}
