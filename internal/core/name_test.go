package core

import (
	"bytes"
	"testing"
)

// TestHeaderNames: a header's name is its solve's. Two shards solved in one
// session share a seed and get different names; a re-solve of the same rows
// gets a new one; a Clone, a seed-only copy of a listed build and a copy
// sharing no byte with the original keep it, and the same X without the seed
// loses it. A grouped header's name is its
// assembly's: a reassembly over the same solves changes it.
func TestHeaderNames(t *testing.T) {
	e := NewEngine(2)
	specs := func() []GroupedConfigSpec {
		return []GroupedConfigSpec{{ID: "A", Shards: []ShardSpec{
			shardOf("acpA/0", "s1", engRows(0, 4, 2)),
			shardOf("acpA/1", "s2", engRows(50, 4, 2)),
		}}}
	}
	first, err := e.RekeyAllGrouped(specs())
	if err != nil {
		t.Fatal(err)
	}
	a, b := first["A"].Hdr.Shards[0].Hdr, first["A"].Hdr.Shards[1].Hdr
	if !bytes.Equal(a.Seed, b.Seed) || a.N() != b.N() {
		t.Fatal("the session's shards do not share one seed at one N")
	}
	if a.Name() == b.Name() {
		t.Error("two shards of one session share a name")
	}
	if a.Name() != a.Clone().Name() || a.Name() != (&Header{X: a.X.Clone(), Seed: bytes.Clone(a.Seed)}).Name() {
		t.Error("a copy of a header lost its name")
	}

	e.Reset()
	again, err := e.RekeyAllGrouped(specs())
	if err != nil {
		t.Fatal(err)
	}
	if got := again["A"].Hdr.Shards[0].Hdr; got.N() != a.N() || got.Name() == a.Name() {
		t.Error("a re-solve of the same rows kept its name")
	}
	if again["A"].Hdr.Name() == first["A"].Hdr.Name() {
		t.Error("a reassembly kept its grouped header's name")
	}
	g := first["A"].Hdr
	if (&GroupedHeader{RekeyNonce: bytes.Clone(g.RekeyNonce)}).Name() != g.Name() {
		t.Error("a grouped header's name is not its rekey nonce's")
	}

	built, _, err := Build(engRows(0, 3, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	seedOnly := &Header{X: built.X, Seed: built.Seed}
	if built.Name() != seedOnly.Name() || (&Header{X: built.X}).Name() == seedOnly.Name() {
		t.Error("a listed build and its seed-only form disagree, or X alone names the solve")
	}
	var none *Header
	var noneGrouped *GroupedHeader
	if none.Name() != 0 || noneGrouped.Name() != 0 {
		t.Error("the nil header's name is not 0")
	}
}

// BenchmarkHeaderName names a 128-row shard.
func BenchmarkHeaderName(b *testing.B) {
	hdr, _, err := Build(engRows(0, 128, 2), 128)
	if err != nil {
		b.Fatal(err)
	}
	hdr = &Header{X: hdr.X, Seed: hdr.Seed}
	for b.Loop() {
		hdr.Name()
	}
}
