package core

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"ppcd/internal/ff64"
)

func testRow(rng *rand.Rand, m int) []CSS {
	row := make([]CSS, m)
	for i := range row {
		row[i] = ff64.New(rng.Uint64())
	}
	return row
}

// testNonces returns n nonces of the given length. Each is a window at an
// odd byte offset of one shared buffer, so none is 16-byte aligned.
func testNonces(rng *rand.Rand, n, size int) [][]byte {
	buf := make([]byte, n*(size+1)+1)
	rng.Read(buf)
	zs := make([][]byte, n)
	for j := range zs {
		off := 1 + j*(size+1)
		zs[j] = buf[off : off+size : off+size]
	}
	return zs
}

// checkHashRows holds HashRows to the reference HashRow on one input. The
// output slice is a sub-slice at an odd offset, and both its neighbours must
// come back untouched.
func checkHashRows(t testing.TB, css []CSS, zs [][]byte) {
	t.Helper()
	const guard = ff64.Elem(0x0123456789abcdef)
	buf := make([]ff64.Elem, len(zs)+4)
	for i := range buf {
		buf[i] = guard
	}
	dst := buf[3 : 3+len(zs)]
	HashRows(dst, css, zs)
	for j, z := range zs {
		if want := HashRow(css, z); dst[j] != want {
			t.Fatalf("m=%d n=%d: entry %d (nonce of %d bytes) = %v, HashRow = %v", len(css), len(zs), j, len(z), dst[j], want)
		}
	}
	if buf[0] != guard || buf[1] != guard || buf[2] != guard || buf[len(buf)-1] != guard {
		t.Fatalf("m=%d n=%d: HashRows wrote outside dst", len(css), len(zs))
	}
}

// TestHashRowsMatchesHashRow crosses the one-block limit (m = 4 → 5), odd and
// even nonce counts, and nonce lengths the kernel must hand to the streaming
// path — alone and mixed into an otherwise standard row.
func TestHashRowsMatchesHashRow(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for m := 0; m <= 8; m++ {
		css := testRow(rng, m)
		for _, n := range []int{0, 1, 2, 3, 8, 9, 128, 129} {
			checkHashRows(t, css, testNonces(rng, n, NonceSize))
			// A window of a longer nonce list, starting at an odd index.
			checkHashRows(t, css, testNonces(rng, n+5, NonceSize)[3:3+n])
		}
		for _, size := range []int{0, 15, 17, 4096} {
			checkHashRows(t, css, testNonces(rng, 3, size))
			for _, at := range []int{0, 3, 4} {
				zs := testNonces(rng, 5, NonceSize)
				zs[at] = testNonces(rng, 1, size)[0]
				checkHashRows(t, css, zs)
			}
		}
	}
}

// TestHashRowsFieldBoundary feeds CSS values around the field's edges, where
// a byte-order slip in the block template would show.
func TestHashRowsFieldBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	edge := []CSS{0, 1, 0xff, 1 << 32, 0xffffffff, ff64.Elem(ff64.Modulus - 1), 0x0102030405060708}
	for m := 1; m <= 5; m++ {
		for s := range edge {
			css := make([]CSS, m)
			for i := range css {
				css[i] = edge[(s+i)%len(edge)]
			}
			checkHashRows(t, css, testNonces(rng, 3, NonceSize))
		}
	}
}

func TestRowHasherMatchesHashRow(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, m := range []int{1, 4, 5, 16} {
		row := testRow(rng, m)
		rh := NewRowHasher(row)
		for _, z := range testNonces(rng, 5, NonceSize) {
			if got, want := rh.Hash(z), HashRow(row, z); got != want {
				t.Fatalf("m=%d: RowHasher=%v HashRow=%v", m, got, want)
			}
		}
	}
}

func FuzzHashRows(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint16(NonceSize), int64(1))
	f.Add(uint8(4), uint8(7), uint16(NonceSize), int64(2))
	f.Add(uint8(5), uint8(3), uint16(NonceSize), int64(3))
	f.Add(uint8(2), uint8(4), uint16(17), int64(4))
	f.Add(uint8(3), uint8(1), uint16(0), int64(5))
	f.Fuzz(func(t *testing.T, m, n uint8, odd uint16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		css := testRow(rng, int(m%12))
		zs := testNonces(rng, int(n), NonceSize)
		if len(zs) > 0 {
			// One nonce of a fuzzer-chosen length somewhere in the row.
			zs[rng.Intn(len(zs))] = testNonces(rng, 1, int(odd%5000))[0]
		}
		checkHashRows(t, css, zs)
	})
}

// TestDeriveRoundTripAcrossRowWidths drives the publisher's two engine paths
// and the subscriber's derivation with rows on both sides of the one-block
// limit. The subscriber works from a deep copy of the header, as it would
// from decoded wire bytes: separately allocated nonces, not the publisher's
// flat buffer.
func TestDeriveRoundTripAcrossRowWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for m := 1; m <= 6; m++ {
		rows := make([][]CSS, 7)
		for i := range rows {
			rows[i] = testRow(rng, m)
		}
		outsider := testRow(rng, m)
		e := NewEngine(2)

		t.Run(fmt.Sprintf("direct/m=%d", m), func(t *testing.T) {
			out, err := e.RekeyAll([]ConfigSpec{{ID: "c", Sig: "1", Groups: []RowGroup{{ID: "g", Rows: rows}}}})
			if err != nil {
				t.Fatal(err)
			}
			hdr := out["c"].Hdr.Clone()
			for i, row := range rows {
				if k, err := DeriveKey(row, hdr); err != nil || k != out["c"].Key {
					t.Fatalf("row %d derived %v (%v), want %v", i, k, err, out["c"].Key)
				}
			}
			if k, _ := DeriveKey(outsider, hdr); k == out["c"].Key {
				t.Fatal("outsider derived the key")
			}
		})

		t.Run(fmt.Sprintf("grouped/m=%d", m), func(t *testing.T) {
			out, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "c", Shards: []ShardSpec{
				shardOf("g/0", "1", rows[:4]),
				shardOf("g/1", "1", rows[4:]),
			}}})
			if err != nil {
				t.Fatal(err)
			}
			ck := out["c"]
			hdr := &GroupedHeader{RekeyNonce: ck.Hdr.RekeyNonce}
			for _, sh := range ck.Hdr.Shards {
				hdr.Shards = append(hdr.Shards, GroupShard{Hdr: sh.Hdr.Clone(), Wrap: sh.Wrap})
			}
			verify := func(k ff64.Elem) bool { return k == ck.Key }
			for i, row := range rows {
				if _, shard, err := DeriveKeyGrouped(row, hdr, verify); err != nil || shard != i/4 {
					t.Fatalf("row %d: shard %d, %v", i, shard, err)
				}
			}
			if _, _, err := DeriveKeyGrouped(outsider, hdr, verify); err != ErrBadKey {
				t.Fatalf("outsider: %v, want ErrBadKey", err)
			}
		})
	}
}

// TestDrawNoncesFlatAndCapped pins the layout the publisher hands the kernel:
// one contiguous buffer, each nonce capped at its own bytes.
func TestDrawNoncesFlatAndCapped(t *testing.T) {
	run, err := drawNonces(5)
	if err != nil {
		t.Fatal(err)
	}
	zs := run.zs
	base := uintptr(unsafe.Pointer(&zs[0][0]))
	for j, z := range zs {
		if len(z) != NonceSize || cap(z) != NonceSize {
			t.Fatalf("nonce %d: len %d cap %d", j, len(z), cap(z))
		}
		if off := uintptr(unsafe.Pointer(&z[0])) - base; off != uintptr(j*NonceSize) {
			t.Fatalf("nonce %d sits %d bytes into the buffer", j, off)
		}
	}
	next := zs[1][0]
	if grown := append(zs[0], ^next); &grown[0] == &zs[0][0] || zs[1][0] != next {
		t.Fatal("append to one nonce reached its neighbour")
	}
	if run, err := drawNonces(0); err != nil || len(run.zs) != 0 || len(run.seed) != SeedSize {
		t.Fatalf("drawNonces(0) = %v, %v", run, err)
	}
}

// BenchmarkHashRows hashes a whole shard's matrix — 128 rows against 128
// nonces — per iteration and reports the cost of one entry.
func BenchmarkHashRows(b *testing.B) {
	const n = 128
	rng := rand.New(rand.NewSource(16))
	run, err := drawNonces(n)
	if err != nil {
		b.Fatal(err)
	}
	zs := run.zs
	dst := make([]ff64.Elem, n)
	for _, m := range []int{1, 4} {
		rows := make([][]CSS, n)
		for i := range rows {
			rows[i] = testRow(rng, m)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, css := range rows {
					HashRows(dst, css, zs)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*n), "ns/hash")
		})
	}
}

func BenchmarkHashRowDirect(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	row := testRow(rng, 8)
	z := make([]byte, NonceSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashRow(row, z)
	}
}
