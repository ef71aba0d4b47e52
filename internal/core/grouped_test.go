package core

import (
	"errors"
	"testing"

	"ppcd/internal/ff64"
)

// deriveGrouped derives the configuration key through one member row,
// verifying against the expected key.
func deriveGrouped(t *testing.T, row []CSS, ck GroupedConfigKeys) {
	t.Helper()
	k, _, err := DeriveKeyGrouped(row, ck.Hdr, func(k ff64.Elem) bool { return k == ck.Key })
	if err != nil {
		t.Fatalf("member derivation failed: %v", err)
	}
	if k != ck.Key {
		t.Fatal("member derived wrong configuration key")
	}
}

// shardOf is the spec of a shard handed over with its rows.
func shardOf(id, sig string, rows [][]CSS) ShardSpec {
	return ShardSpec{ID: id, Sig: sig, N: len(rows), Rows: rows}
}

func groupedSpecs(shA1, shA2, shB ShardSpec) []GroupedConfigSpec {
	return []GroupedConfigSpec{
		{ID: "A", Shards: []ShardSpec{shA1, shA2}},
		{ID: "A|B", Shards: []ShardSpec{shA1, shA2, shB}},
	}
}

func TestEngineGroupedRekeyAndDerive(t *testing.T) {
	e := NewEngine(2)
	shA1 := shardOf("acpA/0", "s1", engRows(0, 3, 2))
	shA2 := shardOf("acpA/1", "s2", engRows(50, 2, 2))
	shB := shardOf("acpB/0", "s3", engRows(100, 2, 2))

	out, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d results", len(out))
	}
	// Shared shards solve once: 3 distinct shards across 2 configurations.
	if got := e.Stats().Solves; got != 3 {
		t.Errorf("first grouped session solved %d shards, want 3", got)
	}
	for _, row := range append(append([][]CSS{}, shA1.Rows...), shA2.Rows...) {
		deriveGrouped(t, row, out["A"])
		deriveGrouped(t, row, out["A|B"])
	}
	for _, row := range shB.Rows {
		deriveGrouped(t, row, out["A|B"])
		if _, _, err := DeriveKeyGrouped(row, out["A"].Hdr, func(k ff64.Elem) bool { return k == out["A"].Key }); err != ErrBadKey {
			t.Errorf("non-member derived config A's key: %v", err)
		}
	}
	// The same shard sub-header backs both configurations, with distinct
	// configuration keys and wraps.
	if out["A"].Hdr.Shards[0].Hdr != out["A|B"].Hdr.Shards[0].Hdr {
		t.Error("shared shard not reused across configurations")
	}
	if out["A"].Key == out["A|B"].Key {
		t.Error("configurations share a key")
	}
}

func TestEngineGroupedIncrementalShardSolve(t *testing.T) {
	e := NewEngine(0)
	shA1 := shardOf("acpA/0", "s1", engRows(0, 3, 2))
	shA2 := shardOf("acpA/1", "s2", engRows(50, 2, 2))
	shB := shardOf("acpB/0", "s3", engRows(100, 2, 2))

	first, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB))
	if err != nil {
		t.Fatal(err)
	}
	base := e.Stats().Solves

	// Steady state: identical signatures → full cache hit, same headers.
	second, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != base {
		t.Errorf("steady-state grouped rekey solved %d shards", got-base)
	}
	if second["A"].Rebuilt || second["A"].Hdr != first["A"].Hdr || second["A"].Key != first["A"].Key {
		t.Error("steady state did not reuse the cached grouped build")
	}

	// One shard's content changes (a leave): exactly one shard re-solves,
	// but every configuration containing it gets a fresh key and fresh
	// wraps while the clean shards keep their sub-headers.
	shA2dirty := shardOf("acpA/1", "s2'", engRows(50, 1, 2))
	third, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2dirty, shB))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != base+1 {
		t.Errorf("single-shard change solved %d shards, want 1", got-base)
	}
	for _, id := range []string{"A", "A|B"} {
		if !third[id].Rebuilt {
			t.Errorf("config %s not rebuilt after shard change", id)
		}
		if third[id].Key == first[id].Key {
			t.Errorf("config %s kept its key across a membership change", id)
		}
		if third[id].Hdr.Shards[0].Hdr != first[id].Hdr.Shards[0].Hdr {
			t.Errorf("config %s re-solved a clean shard", id)
		}
		if third[id].Hdr.Shards[1].Hdr == first[id].Hdr.Shards[1].Hdr {
			t.Errorf("config %s kept the dirty shard's sub-header", id)
		}
	}
	// Remaining member of the dirty shard still derives; departed row fails.
	deriveGrouped(t, shA2dirty.Rows[0], third["A"])
	departed := shA2.Rows[1]
	if _, _, err := DeriveKeyGrouped(departed, third["A"].Hdr, func(k ff64.Elem) bool { return k == third["A"].Key }); err != ErrBadKey {
		t.Error("departed row still derives the new configuration key")
	}

	// A vanished shard (all members left) changes the configuration
	// signature without any solve.
	fourth, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "A", Shards: []ShardSpec{shA1}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != base+1 {
		t.Errorf("shard removal solved %d shards, want 0", got-base-1)
	}
	if !fourth["A"].Rebuilt || len(fourth["A"].Hdr.Shards) != 1 {
		t.Error("shard removal did not reassemble the configuration")
	}

	// Reset forgets everything, including shard solves.
	e.Reset()
	if _, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB)); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != base+1+3 {
		t.Errorf("post-Reset rekey solved %d shards, want 3", got-base-1)
	}
}

func TestEngineGroupedRejectsEmptyConfig(t *testing.T) {
	e := NewEngine(0)
	if _, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "A"}}); err == nil {
		t.Fatal("zero-row grouped configuration accepted")
	}
	sh := shardOf("acpA/0", "s", [][]CSS{{}})
	if _, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "A", Shards: []ShardSpec{sh}}}); err == nil {
		t.Fatal("empty CSS row accepted")
	}
}

// TestEngineGroupedRowsOnlyWhenUnsolved: a shard the engine holds a solve for
// is served from its ID, signature and row count alone — across a steady
// state, a reassembly and a neighbour's re-solve — and a shard it must solve
// without (all of) its rows fails the session with ErrShardRows before any
// solve runs.
func TestEngineGroupedRowsOnlyWhenUnsolved(t *testing.T) {
	e := NewEngine(2)
	shA1 := shardOf("acpA/0", "s1", engRows(0, 3, 2))
	shA2 := shardOf("acpA/1", "s2", engRows(50, 2, 2))
	shB := shardOf("acpB/0", "s3", engRows(100, 2, 2))
	bare := func(sh ShardSpec) ShardSpec { return ShardSpec{ID: sh.ID, Sig: sh.Sig, N: sh.N} }

	if e.HasShard(shA1.ID, shA1.Sig) {
		t.Fatal("a fresh engine reports a solve")
	}
	first, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB))
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasShard(shA1.ID, shA1.Sig) || e.HasShard(shA1.ID, "s1'") || e.HasShard("acpC/0", "s1") {
		t.Fatal("HasShard does not answer for exactly the solved (ID, Sig)")
	}
	base := e.Stats().Solves

	// Steady state, then a forced reassembly, without a single row.
	e.Forget("A")
	second, err := e.RekeyAllGrouped(groupedSpecs(bare(shA1), bare(shA2), bare(shB)))
	if err != nil {
		t.Fatal(err)
	}
	if !second["A"].Rebuilt || second["A|B"].Rebuilt || second["A"].Hdr.Shards[1].Hdr != first["A"].Hdr.Shards[1].Hdr {
		t.Error("rowless specs: want A reassembled over its cached shards and A|B a cache hit")
	}
	// One dirty shard brings its rows; its clean neighbours need none.
	shA2dirty := shardOf("acpA/1", "s2'", engRows(50, 1, 2))
	third, err := e.RekeyAllGrouped(groupedSpecs(bare(shA1), shA2dirty, bare(shB)))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != base+1 {
		t.Errorf("%d solves for one dirty shard among rowless clean ones, want 1", got-base)
	}
	deriveGrouped(t, shA1.Rows[0], third["A"])
	deriveGrouped(t, shA2dirty.Rows[0], third["A|B"])

	// Must solve, cannot: a changed signature without rows, rows that are not
	// the N the signature digests, and a cache that was reset in between.
	short := shardOf("acpB/0", "s3'", shB.Rows[:1])
	short.N = 2
	for name, specs := range map[string][]GroupedConfigSpec{
		"dirty":    groupedSpecs(bare(shA1), bare(shardOf("acpA/1", "s2''", shA2.Rows)), bare(shB)),
		"mismatch": groupedSpecs(bare(shA1), shA2dirty, short),
	} {
		if _, err := e.RekeyAllGrouped(specs); !errors.Is(err, ErrShardRows) {
			t.Errorf("%s shard without its rows: %v, want ErrShardRows", name, err)
		}
	}
	e.Reset()
	if _, err := e.RekeyAllGrouped(groupedSpecs(bare(shA1), shA2dirty, bare(shB))); !errors.Is(err, ErrShardRows) {
		t.Errorf("rowless specs after a Reset: %v, want ErrShardRows", err)
	}
	if got := e.Stats().Solves; got != base+1 {
		t.Errorf("refused sessions ran %d solves", got-base-1)
	}
}
