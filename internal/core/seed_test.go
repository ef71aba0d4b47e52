package core

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ppcd/internal/core/coretest"
	"ppcd/internal/ff64"
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
		if short := ExpandNonces(seed, k); !sameNonces(short, long[:k]) {
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
	if sameNonces(ExpandNonces(bytes.Repeat([]byte{8}, SeedSize), 4), long[:4]) {
		t.Error("two seeds, one run")
	}
}

// sameNonces reports whether two nonce sequences are equal nonce by nonce.
func sameNonces(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }

// checkSeeded is the seed invariant: the header names its run, and its nonces
// are the first N of that run — listed beside the seed by the §V-C leaf
// builders, and held nowhere by an engine header, which rests as X and seed.
func checkSeeded(t *testing.T, what string, h *Header, listed bool) {
	t.Helper()
	if !h.Seeded() {
		t.Fatalf("%s: header without a seed", what)
	}
	if len(h.X) != h.N()+1 || !sameNonces(h.Nonces(), ExpandNonces(h.Seed, h.N())) {
		t.Fatalf("%s: N=%d header's nonces are not the first of its seed's run", what, h.N())
	}
	if listed != (h.Zs != nil) || listed && !sameNonces(h.Zs, h.Nonces()) {
		t.Fatalf("%s: header lists %d nonces; listed = %v", what, len(h.Zs), listed)
	}
}

// TestBuiltHeadersCarryTheirSeed: every header every builder returns satisfies
// the seed invariant — the engine's hold nothing but X and the seed; the
// headers of one session share the seed, different sessions do not.
func TestBuiltHeadersCarryTheirSeed(t *testing.T) {
	rows := engRows(0, 7, 2)

	h, _, err := Build(rows, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, "Build", h, true)

	multi, _, err := BuildMulti(rows, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range multi {
		checkSeeded(t, "BuildMulti", m, true)
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
		checkSeeded(t, "BuildGrouped", sh.Hdr, true)
	}

	e := NewEngine(2)
	cfgs, err := e.RekeyAll([]ConfigSpec{
		{ID: "A", Sig: sigOf("1"), Groups: []RowGroup{{ID: "a", Rows: rows[:3]}}},
		{ID: "B", Sig: sigOf("1"), Groups: []RowGroup{{ID: "a", Rows: rows[:3]}, {ID: "b", Rows: rows[3:]}}, MinN: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, "RekeyAll A", cfgs["A"].Hdr, false)
	checkSeeded(t, "RekeyAll B", cfgs["B"].Hdr, false)
	if a, b := cfgs["A"].Hdr, cfgs["B"].Hdr; a.N() == b.N() || &a.Seed[0] != &b.Seed[0] {
		t.Errorf("RekeyAll: the configurations of one session (N=%d, N=%d) do not share its seed", a.N(), b.N())
	}

	grouped, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "G", Shards: []ShardSpec{
		shardOf("s0", "1", rows[:4]), shardOf("s1", "1", rows[4:]),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	sh := grouped["G"].Hdr.Shards
	for _, s := range sh {
		checkSeeded(t, "RekeyAllGrouped", s.Hdr, false)
	}
	if sh[0].Hdr.N() == sh[1].Hdr.N() || &sh[0].Hdr.Seed[0] != &sh[1].Hdr.Seed[0] {
		t.Error("RekeyAllGrouped: the shards of one session do not share its seed and differ in N")
	}
	// A later session re-solves one shard: a fresh seed for it, the clean
	// shard keeps its header.
	again, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "G", Shards: []ShardSpec{
		leased(t, e, shardOf("s0", "1", rows[:4])), shardOf("s1", "2", rows[5:]),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	sh2 := again["G"].Hdr.Shards
	checkSeeded(t, "re-solved shard", sh2[1].Hdr, false)
	if sh2[0].Hdr != sh[0].Hdr || bytes.Equal(sh2[1].Hdr.Seed, sh[1].Hdr.Seed) {
		t.Error("second session: clean shard rebuilt, or dirty shard kept its seed")
	}
}

// TestHeaderSizes: Size is Fig. 5 as built — X plus the N nonces its seed
// names; WireSize is what a stream frame spends: X, a run reference and the
// 40-byte run entry of its seed, which shards of one session share.
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
	if atRest := (&Header{X: h.X, Seed: h.Seed}); atRest.Size() != h.Size() || atRest.WireSize() != h.WireSize() {
		t.Errorf("at rest: Size %d, WireSize %d; want %d and %d", atRest.Size(), atRest.WireSize(), h.Size(), h.WireSize())
	}

	g, _, err := BuildGrouped(engRows(0, 7, 1), 3) // shards of 3, 3 and 1 rows, one session each
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.WireSize(), NonceSize+(8*4+8*4+8*2)+3*(4+8)+3*40; got != want {
		t.Errorf("grouped WireSize over three sessions = %d, want %d", got, want)
	}
	g.Shards[1].Hdr = &Header{X: g.Shards[1].Hdr.X, Seed: g.Shards[0].Hdr.Seed}
	if got, want := g.WireSize(), NonceSize+(8*4+8*4+8*2)+3*(4+8)+2*40; got != want {
		t.Errorf("grouped WireSize with two shards of one session = %d, want %d", got, want)
	}
}

// TestHeaderAtRestIsEquivalent: a header that rests as X and a seed and the
// same header with its nonces listed beside the seed (what Build returns)
// give one key extraction vector — the one HashRow gives over the seed's
// expansion — one key and one size, through the row-hash kernel at every N
// around its pairing and the counter's second byte. Each KEV expands the
// seed once, into scratch it does not keep; the listed nonces are not read.
func TestHeaderAtRestIsEquivalent(t *testing.T) {
	for _, n := range []int{1, 2, 3, 127, 128, 300} {
		for _, width := range []int{1, 4, 5} { // 4 CSSs still fit the kernel's one block
			rows := engRows(0, min(n, 5), width)
			listed, key, err := Build(rows, n)
			if err != nil {
				t.Fatal(err)
			}
			atRest := &Header{X: listed.X, Seed: listed.Seed}
			want := linalg.Vector{ff64.One}
			for _, z := range ExpandNonces(listed.Seed, n) {
				want = append(want, HashRow(rows[0], z))
			}
			for name, h := range map[string]*Header{"at rest": atRest, "listed": listed} {
				before := NonceExpansions()
				got, err := KEV(rows[0], h)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("N=%d width=%d: KEV over the header %s is not HashRow over its seed's run (%v)", n, width, name, err)
				}
				if k, err := DeriveKey(rows[0], h); err != nil || k != key {
					t.Fatalf("N=%d width=%d: key derived from the header %s is %v (%v), want %v", n, width, name, k, err, key)
				}
				if c, err := NewKEVCache(rows[0], h); err != nil {
					t.Fatal(err)
				} else if k, err := c.Derive(h); err != nil || k != key {
					t.Fatalf("N=%d width=%d: cached KEV over the header %s derives %v (%v)", n, width, name, k, err)
				}
				if got := NonceExpansions() - before; got != 3 {
					t.Fatalf("N=%d: three KEVs over the header %s expanded %d seeds", n, name, got)
				}
				if h.N() != n || h.Size() != listed.Size() || h.WireSize() != listed.WireSize() {
					t.Fatalf("N=%d: header %s has N=%d Size=%d WireSize=%d, listed %d %d %d", n, name, h.N(), h.Size(), h.WireSize(), listed.N(), listed.Size(), listed.WireSize())
				}
				if !sameNonces(h.Nonces(), listed.Zs) {
					t.Fatalf("N=%d: the nonces of the header %s are not the listed ones", n, name)
				}
			}
		}
	}
}

// TestMalformedHeadersAreRefused: whatever shape decoded bytes or a careless
// caller give a header, its readers return ErrBadHeader and none panics. A
// header of N > 0 without a seed has no nonces, whatever it lists in Zs.
func TestMalformedHeadersAreRefused(t *testing.T) {
	seed := bytes.Repeat([]byte{9}, SeedSize)
	x := func(n int) linalg.Vector { return make(linalg.Vector, n) }
	row := []CSS{3, 5}
	for name, tc := range map[string]struct {
		h    *Header
		size int
		ok   bool
	}{
		"seeded, no X":                      {&Header{Seed: seed}, 0, false},
		"no seed":                           {&Header{X: x(4)}, 32 + 48, false},
		"no seed, nonces listed":            {&Header{X: x(4), Zs: ExpandNonces(seed, 3)}, 32 + 48, false},
		"16-byte seed":                      {&Header{X: x(4), Seed: seed[:16]}, 32 + 48, false},
		"24-byte seed":                      {&Header{X: x(4), Seed: seed[:24]}, 32 + 48, false},
		"33-byte seed":                      {&Header{X: x(4), Seed: append(bytes.Clone(seed), 1)}, 32 + 48, false},
		"16-byte seed beside listed nonces": {&Header{X: x(4), Zs: ExpandNonces(seed, 3), Seed: seed[:16]}, 32 + 48, false},
		"seeded, N = 0":                     {&Header{X: x(1), Seed: seed}, 8, true},
		"N = 0":                             {&Header{X: x(1)}, 8, true},
	} {
		if got := tc.h.Size(); got != tc.size {
			t.Errorf("%s: Size = %d, want %d", name, got, tc.size)
		}
		if c := tc.h.Clone(); !reflect.DeepEqual(c.Nonces(), tc.h.Nonces()) || c.N() != tc.h.N() || c.Size() != tc.size {
			t.Errorf("%s: clone of N=%d, %d bytes has N=%d, %d bytes", name, tc.h.N(), tc.size, c.N(), c.Size())
		}
		_, errKEV := KEV(row, tc.h)
		_, errKey := DeriveKey(row, tc.h)
		_, errCache := NewKEVCache(row, tc.h)
		for _, err := range []error{errKEV, errKey, errCache} {
			if tc.ok != (err == nil) || err != nil && !errors.Is(err, ErrBadHeader) {
				t.Errorf("%s: %v, want ErrBadHeader = %v", name, err, !tc.ok)
			}
		}
		g := &GroupedHeader{RekeyNonce: make([]byte, NonceSize), Shards: []GroupShard{{Hdr: tc.h}}}
		if _, _, err := DeriveKeyGrouped(row, g, func(ff64.Elem) bool { return false }); !errors.Is(err, ErrBadKey) {
			t.Errorf("%s: grouped scan: %v, want ErrBadKey", name, err)
		}
		if g.Size() != tc.size+8+NonceSize {
			t.Errorf("%s: GroupedHeader.Size = %d", name, g.Size())
		}
	}
}

// TestSeedOnlyClone: cloning a header at rest copies X and the seed and
// nothing else.
func TestSeedOnlyClone(t *testing.T) {
	h := &Header{X: linalg.Vector{1, 2, 3}, Seed: bytes.Repeat([]byte{4}, SeedSize)}
	c := h.Clone()
	if !reflect.DeepEqual(c, h) || c.Zs != nil || &c.X[0] == &h.X[0] || &c.Seed[0] == &h.Seed[0] {
		t.Fatalf("clone %+v of %+v", c, h)
	}
	if allocs := testing.AllocsPerRun(10, func() { h.Clone() }); allocs > 3 {
		t.Errorf("Clone of a header at rest takes %.0f allocations, want the header, X and the seed", allocs)
	}
}

// TestKEVExpandsIntoScratch: after the first call a KEV over a header at rest
// allocates its result and the cipher's fixed state — not the 40 bytes per
// nonce an expansion of its own would take.
func TestKEVExpandsIntoScratch(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("sync.Pool drops a share of what it is given under -race")
	}
	const n = 2047 // a vector of exactly 16 kB
	h := &Header{X: make(linalg.Vector, n+1), Seed: bytes.Repeat([]byte{6}, SeedSize)}
	row := []CSS{3, 5}
	got := coretest.MedianAllocated(9, func() {
		if _, err := KEV(row, h); err != nil {
			t.Fatal(err)
		}
	})
	if limit := uint64(8*(n+1) + 2048); got > limit {
		t.Errorf("KEV over N=%d at rest allocates %d bytes a call, want its %d-byte vector and under 2 kB; an expansion is %d", n, got, 8*(n+1), 40*n)
	}
}

// TestSizesOfMixedGroupedHeader: Size, WireSize and GroupedHeader.Size do not
// depend on whether a shard lists its nonces beside its seed.
func TestSizesOfMixedGroupedHeader(t *testing.T) {
	g, _, err := BuildGrouped(engRows(0, 9, 1), 3) // three shards of three rows, all listed
	if err != nil {
		t.Fatal(err)
	}
	size, wireSize := g.Size(), g.WireSize()
	if want := NonceSize + 3*(8*4+16*3+8); size != want {
		t.Fatalf("GroupedHeader.Size = %d, want %d", size, want)
	}
	mixed := &GroupedHeader{RekeyNonce: g.RekeyNonce, Shards: append([]GroupShard(nil), g.Shards...)}
	mixed.Shards[0].Hdr = &Header{X: g.Shards[0].Hdr.X, Seed: g.Shards[0].Hdr.Seed}
	if mixed.Size() != size || mixed.WireSize() != wireSize {
		t.Errorf("one shard at rest: Size %d, WireSize %d; want %d and %d", mixed.Size(), mixed.WireSize(), size, wireSize)
	}
}

// TestConcurrentKEVsShareScratch: subscribers hash at once, each expanding
// into scratch taken from one pool; every vector must still be its own (run
// under -race).
func TestConcurrentKEVsShareScratch(t *testing.T) {
	row := []CSS{3, 5}
	var hdrs []*Header
	var want []linalg.Vector
	for i := 0; i < 6; i++ {
		h := &Header{X: make(linalg.Vector, 20*i+2), Seed: bytes.Repeat([]byte{byte(i)}, SeedSize)}
		v, err := KEV(row, h)
		if err != nil {
			t.Fatal(err)
		}
		hdrs, want = append(hdrs, h), append(want, v)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(hdrs)
				if v, err := KEV(row, hdrs[k]); err != nil || !reflect.DeepEqual(v, want[k]) {
					t.Errorf("goroutine %d, KEV %d over header %d: wrong vector (%v)", g, i, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
